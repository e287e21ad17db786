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
//! * **The lifecycle script**: actions on unknown replicas or at times
//!   that are not finite and non-negative are rejected, and actions on one
//!   replica at one instant apply in script order.
//! * **Rollups**: the fleet's `e2e`, `queue_wait` and `replica{r}_e2e`
//!   summaries are those of the completions its replica sessions logged,
//!   across a loss and a recovery.

use std::sync::{Arc, OnceLock};

use exegpt::Engine;
use exegpt_cluster::ClusterSpec;
use exegpt_dist::stats;
use exegpt_fleet::{
    DispatchPolicy, Fleet, FleetError, FleetOptions, ReplicaSpec, ReplicaState, ScaleAction,
    ScaleEvent, SloClass,
};
use exegpt_model::ModelConfig;
use exegpt_profiler::{LayerProfile, ProfileOptions, Profiler};
use exegpt_serve::{Event, ServeLoop, ServeOptions, ServeReport};
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
        assert_eq!(a.log(), b.log(), "rerun with {n} replicas must be byte-identical");
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
    let loss = ScaleEvent { t: 0.5 * horizon, action: ScaleAction::Lose { replica: 1 } };

    let build = || {
        Fleet::new(
            vec![replica("r0", &engine, schedule.config), replica("r1", &engine, schedule.config)],
            FleetOptions {
                policy: DispatchPolicy::KvHeadroom,
                scale: vec![loss],
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
    assert!(matches!(report.replicas[1].state, ReplicaState::Lost { .. }));

    // And the whole scenario — loss, reroute and all — is reproducible.
    let again = build().run(stream).expect("runs");
    assert_eq!(report.log(), again.log(), "loss scenario must be deterministic");
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

#[test]
fn scripted_actions_on_unknown_replicas_or_bad_times_are_rejected() {
    let engine = engine();
    let schedule = engine.schedule(Secs::INFINITY).expect("schedules");
    let lose = |t: f64, replica: usize| ScaleEvent { t, action: ScaleAction::Lose { replica } };
    let cases = [
        (lose(1.0, 2), "targets replica 2 but the fleet has 2"),
        (lose(f64::NAN, 1), "finite and non-negative, got NaN"),
        (lose(-1.0, 1), "finite and non-negative, got -1"),
    ];
    for (event, message) in cases {
        let specs =
            vec![replica("r0", &engine, schedule.config), replica("r1", &engine, schedule.config)];
        match Fleet::new(specs, FleetOptions { scale: vec![event], ..FleetOptions::default() }) {
            Err(FleetError::InvalidConfig { what, why }) => {
                assert_eq!(what, "scale");
                assert!(why.contains(message), "{why}");
            }
            Err(e) => panic!("expected InvalidConfig for {event:?}, got {e}"),
            Ok(_) => panic!("{event:?} must be rejected"),
        }
    }
}

#[test]
fn actions_on_one_replica_at_one_instant_apply_in_script_order() {
    let engine = engine();
    let schedule = engine.schedule(Secs::INFINITY).expect("schedules");
    let stream = trace(0.5 * schedule.estimate.throughput, 100);
    let t = 0.5 * stream.last().expect("non-empty").request.arrival;
    let run = |first: ScaleAction, second: ScaleAction| {
        let specs =
            vec![replica("r0", &engine, schedule.config), replica("r1", &engine, schedule.config)];
        let scale = vec![ScaleEvent { t, action: first }, ScaleEvent { t, action: second }];
        let fleet = Fleet::new(specs, FleetOptions { scale, ..FleetOptions::default() });
        let report = fleet.expect("valid fleet").run(stream.clone()).expect("runs");
        assert_eq!(report.completed, 100, "no order of the script loses a request");
        report
    };
    let (lose, up) = (ScaleAction::Lose { replica: 1 }, ScaleAction::Up { replica: 1 });
    // Lost, then redeployed: the replica ends active, with a second session.
    let redeployed = run(lose, up);
    assert_eq!(redeployed.replicas[1].state, ReplicaState::Active);
    assert_eq!(redeployed.replicas[1].reports.len(), 2);
    // An active replica ignores the scale-up, then is lost for good.
    let lost = run(up, lose);
    assert_eq!(lost.replicas[1].state, ReplicaState::Lost { at: t });
    assert_eq!(lost.replicas[1].reports.len(), 1);
}

/// The `e2e` of every completion the sessions logged, in log order.
fn logged_e2e<'a>(sessions: impl IntoIterator<Item = &'a ServeReport>) -> Vec<f64> {
    sessions
        .into_iter()
        .flat_map(|s| s.events.events())
        .filter_map(|e| match *e {
            Event::Completion { e2e, .. } => Some(e2e),
            _ => None,
        })
        .collect()
}

#[test]
fn rollups_summarize_the_completions_the_sessions_logged() {
    let engine = engine();
    let schedule = engine.schedule(Secs::INFINITY).expect("schedules");
    let total = 400;
    let stream = trace(0.8 * schedule.estimate.throughput, total);
    let horizon = stream.last().expect("non-empty").request.arrival;
    let scale = vec![
        ScaleEvent { t: 0.25 * horizon, action: ScaleAction::Lose { replica: 1 } },
        ScaleEvent { t: 0.3 * horizon, action: ScaleAction::Recover { replica: 1 } },
    ];
    let specs =
        vec![replica("r0", &engine, schedule.config), replica("r1", &engine, schedule.config)];
    let opts =
        FleetOptions { policy: DispatchPolicy::LeastOutstanding, scale, ..FleetOptions::default() };
    let report = Fleet::new(specs, opts).expect("valid fleet").run(stream).expect("runs");

    assert_eq!(report.completed, total);
    let sessions = &report.replicas[1].reports;
    assert_eq!(sessions.len(), 2, "the recovered replica runs a second session");
    assert!(sessions.iter().all(|s| s.completed > 0), "both of its sessions complete requests");
    let summaries = &report.metrics.summaries;
    for (r, replica) in report.replicas.iter().enumerate() {
        assert_eq!(
            summaries.get(&format!("replica{r}_e2e")).copied(),
            stats::summary(&logged_e2e(&replica.reports)),
            "replica{r}_e2e"
        );
    }
    let all = report.replicas.iter().flat_map(|r| &r.reports);
    assert_eq!(summaries.get("e2e").copied(), stats::summary(&logged_e2e(all.clone())), "e2e");
    let queue_wait = summaries.get("queue_wait").expect("recorded");
    assert_eq!(queue_wait.count, report.completed);
    let session_max = all.filter_map(|s| s.queue_wait).map(|q| q.max).fold(f64::MIN, f64::max);
    assert_eq!(queue_wait.max, session_max, "queue_wait.max");
}

#[test]
fn sparse_request_ids_give_the_dense_trace_accounting() {
    let engine = engine();
    let schedule = engine.schedule(Secs::INFINITY).expect("schedules");
    let classes = vec![SloClass::interactive("chat", Secs::new(60.0)), SloClass::batch("bulk")];
    let run = |id: fn(u64) -> u64| {
        let mut requests = trace(0.8 * schedule.estimate.throughput, 300);
        for (i, r) in (0u32..).zip(&mut requests) {
            r.tenant = i % 3;
            r.class = u32::from(r.tenant == 2);
            r.request.request.id = id(r.request.request.id);
        }
        let specs =
            vec![replica("r0", &engine, schedule.config), replica("r1", &engine, schedule.config)];
        let opts = FleetOptions { classes: classes.clone(), ..FleetOptions::default() };
        Fleet::new(specs, opts).expect("valid fleet").run(requests).expect("runs")
    };
    let dense = run(|id| id);
    // Ids far from zero and seven apart: no request sits at its offset
    // from the first id, so every completion's tenant is searched for.
    let sparse = run(|id| 1_000 + 7 * id);
    assert_eq!(dense.completed, 300);
    assert_eq!(dense.tenants.len(), 3);
    assert!(dense.tenants.iter().all(|t| t.completed > 0 && t.slo.checked == t.completed));
    let accounting = |r: &exegpt_fleet::FleetReport| -> Vec<String> {
        r.tenants.iter().map(|t| serde_json::to_string(t).expect("serializes")).collect()
    };
    assert_eq!(accounting(&sparse), accounting(&dense), "per-tenant accounting");
    assert_eq!(sparse.metrics, dense.metrics, "fleet metrics");
}
