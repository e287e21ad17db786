//! Acceptance tests for fault injection and graceful degradation.
//!
//! Setup mirrors `tests/shift.rs`: OPT-13B on 4×A40 serving translation
//! traffic under a 30 s latency bound, 2000 Poisson arrivals. A fixed
//! [`FaultSchedule`] kills one device a quarter into the arrival window,
//! slows another past the eviction threshold, and recovers both during the
//! backlog drain. The acceptance criteria from the fault-model design:
//!
//! 1. replaying the same schedule twice yields byte-identical event logs,
//! 2. graceful degradation loses zero requests (aborted work retries and
//!    completes on the surviving topology),
//! 3. every fault-driven replan lands at a phase boundary — never inside an
//!    executing phase — and is installed before the next phase runs,
//! 4. with no active faults the layer is a true no-op: enabling it with an
//!    empty schedule changes neither the makespan nor a single log byte.

use std::sync::{Arc, OnceLock};

use exegpt::Engine;
use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::{LayerProfile, ProfileOptions, Profiler};
use exegpt_serve::{
    Event, FaultEvent, FaultKind, FaultOptions, FaultSchedule, ServeLoop, ServeOptions,
    ServeReport, SloTargets, StragglerOptions,
};
use exegpt_units::Secs;
use exegpt_workload::{PoissonStream, Task, TimedRequest};

const LATENCY_BOUND: Secs = Secs::new(30.0);
const TOTAL: usize = 2000;
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

struct Setup {
    engine: Engine,
    schedule: exegpt::ScheduleConfig,
    original: String,
    arrivals: Vec<TimedRequest>,
    horizon: f64,
    slo_e2e: Secs,
}

fn setup() -> Setup {
    let workload = Task::Translation.workload().expect("valid");
    let engine = Engine::builder()
        .model(ModelConfig::opt_13b())
        .cluster(ClusterSpec::a40_cluster().subcluster(4).expect("fits"))
        .workload(workload.clone())
        .profile(profile())
        .build()
        .expect("builds");
    let schedule = engine.schedule(LATENCY_BOUND).expect("schedules");
    // Headroom below scheduled capacity so the degraded cluster can drain
    // its backlog and the run reaches the recovery events.
    let rate = 0.6 * schedule.estimate.throughput;
    let arrivals: Vec<TimedRequest> =
        PoissonStream::new(&workload, rate, SEED).take(TOTAL).collect();
    let horizon = arrivals.last().map(|r| r.arrival).unwrap_or(0.0);
    Setup {
        engine,
        schedule: schedule.config,
        original: schedule.config.describe(),
        arrivals,
        horizon,
        slo_e2e: schedule.estimate.latency * 4.0,
    }
}

/// The full degradation lifecycle: hard failure, straggler past the
/// eviction threshold, staged recovery during the backlog drain.
fn lifecycle_faults(horizon: f64) -> FaultSchedule {
    FaultSchedule::new(vec![
        FaultEvent { t: 0.25 * horizon, kind: FaultKind::GpuFail { gpu: 3 } },
        FaultEvent { t: 0.40 * horizon, kind: FaultKind::GpuSlowdown { gpu: 1, factor: 3.0 } },
        FaultEvent { t: 1.05 * horizon, kind: FaultKind::GpuRecover { gpu: 1 } },
        FaultEvent { t: 1.10 * horizon, kind: FaultKind::GpuRecover { gpu: 3 } },
    ])
    .expect("valid schedule")
}

fn opts(setup: &Setup, faults: Option<FaultOptions>, adaptive: bool) -> ServeOptions {
    ServeOptions {
        slo: SloTargets::e2e(setup.slo_e2e),
        faults,
        adaptive,
        ..ServeOptions::default()
    }
}

fn serve(setup: &Setup, opts: &ServeOptions) -> ServeReport {
    ServeLoop::new(setup.engine.clone(), &setup.schedule, opts.clone())
        .expect("feasible")
        .run(setup.arrivals.clone())
        .expect("serves")
}

/// Phase intervals `(t_start, t_end)` recorded in the log.
fn phase_intervals(events: &[Event]) -> Vec<(f64, f64)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Encode { t_start, t_end, .. }
            | Event::Decode { t_start, t_end, .. }
            | Event::Round { t_start, t_end, .. } => Some((*t_start, *t_end)),
            _ => None,
        })
        .collect()
}

#[test]
fn fault_replay_is_byte_identical_with_zero_losses() {
    let setup = setup();
    let faults = FaultOptions {
        schedule: lifecycle_faults(setup.horizon),
        // Backlogged phases are long; two dilated phases are enough
        // evidence here (the default debounce of 3 suits short phases).
        straggler: StragglerOptions { rel_threshold: 1.25, consecutive: 2 },
        ..FaultOptions::default()
    };
    // Drift adaptation off so the log isolates the fault path (the
    // degraded backlog's drain is output-length-biased and would trigger
    // unrelated drift reschedules).
    let o = opts(&setup, Some(faults), false);
    let a = serve(&setup, &o);
    let b = serve(&setup, &o);

    // Byte-determinism of the full degradation lifecycle.
    let ja = a.events.to_jsonl();
    assert!(!ja.is_empty());
    assert_eq!(ja, b.events.to_jsonl(), "fault replay must be byte-deterministic");

    // Graceful degradation: all four faults fire, the failure is detected,
    // the straggler is confirmed and evicted, and nothing is lost.
    assert_eq!(a.faults_injected, 4);
    assert_eq!(a.faults_detected, 1);
    assert_eq!(a.stragglers_detected, 1);
    assert!(a.replans >= 3, "failover, eviction and recovery all replan (got {})", a.replans);
    assert!(a.retries > 0, "aborted in-flight work is retried");
    assert_eq!(a.requests_lost, 0);
    assert_eq!(a.completed, TOTAL);
    assert!(a.slo.is_consistent(), "inconsistent SLO accounting: {:?}", a.slo);
    assert_eq!(a.final_schedule, setup.original, "recovery restores the original plan");

    // Every replan decision lands at a phase boundary: never strictly
    // inside an executed phase, and the chosen plan is installed (PlanSwap)
    // before the next phase runs.
    let events = a.events.events();
    let intervals = phase_intervals(events);
    let mut replans = 0;
    for (i, e) in events.iter().enumerate() {
        let Event::Replan { t, .. } = e else { continue };
        replans += 1;
        for &(s, end) in &intervals {
            assert!(!(*t > s && *t < end), "replan at t={t} falls inside phase ({s}, {end})");
        }
        let installed = events[i + 1..]
            .iter()
            .take_while(|e| {
                !matches!(e, Event::Encode { .. } | Event::Decode { .. } | Event::Round { .. })
            })
            .any(|e| matches!(e, Event::PlanSwap { .. }));
        assert!(installed, "replan #{replans} was not installed before the next phase");
    }
    assert_eq!(replans, a.replans, "every replan decision is logged");
    assert!(
        !events.iter().any(|e| matches!(e, Event::ReplanFailed { .. })),
        "no replan may fail in this scenario"
    );
}

#[test]
fn idle_fault_layer_is_a_true_no_op() {
    // Differential: enabling the fault layer with an empty schedule must
    // not perturb a single bit — same makespan, same log bytes, same
    // metrics — on the full adaptive loop.
    let setup = setup();
    let disabled = serve(&setup, &opts(&setup, None, true));
    let idle = serve(&setup, &opts(&setup, Some(FaultOptions::default()), true));

    assert_eq!(disabled.makespan.to_bits(), idle.makespan.to_bits(), "makespans must be bit-equal");
    assert_eq!(
        disabled.events.to_jsonl(),
        idle.events.to_jsonl(),
        "an idle fault layer must not change the event log"
    );
    assert_eq!(
        serde_json::to_string(&disabled.metrics).expect("serializes"),
        serde_json::to_string(&idle.metrics).expect("serializes"),
    );
    assert_eq!(idle.faults_injected, 0);
    assert_eq!(idle.replans, 0);
    assert_eq!(idle.retries, 0);
}

#[test]
fn single_gpu_failure_degrades_gracefully_under_default_options() {
    // The acceptance scenario: a mid-run single-GPU failure under
    // otherwise-default serving options (adaptive loop on). Detection,
    // replan onto the three survivors, zero losses, deterministic replay.
    let setup = setup();
    let faults = FaultOptions {
        schedule: FaultSchedule::new(vec![FaultEvent {
            t: 0.5 * setup.horizon,
            kind: FaultKind::GpuFail { gpu: 2 },
        }])
        .expect("valid schedule"),
        ..FaultOptions::default()
    };
    let o = opts(&setup, Some(faults), true);
    let a = serve(&setup, &o);
    let b = serve(&setup, &o);

    assert_eq!(a.faults_injected, 1);
    assert_eq!(a.faults_detected, 1, "the failure matures through the heartbeat timeout");
    assert!(a.replans >= 1, "the loop replans onto the survivors");
    assert_eq!(a.completed, TOTAL, "every request completes on the degraded cluster");
    assert_eq!(a.requests_lost, 0);
    assert!(a.slo.is_consistent(), "inconsistent SLO accounting: {:?}", a.slo);
    assert!(
        a.events.events().iter().any(
            |e| matches!(e, Event::Replan { gpus, reason, .. } if *gpus == 3 && reason == "failover")
        ),
        "the failover replan targets the 3-GPU surviving topology"
    );
    assert_eq!(
        a.events.to_jsonl(),
        b.events.to_jsonl(),
        "degraded runs must stay byte-deterministic"
    );
}

#[test]
fn evicted_then_failed_device_counts_once() {
    // A straggler is evicted, and the same device later fails with no
    // recovery in between: one device is lost, so the failure must not
    // replan onto two survivors.
    let setup = setup();
    let faults = FaultOptions {
        schedule: FaultSchedule::new(vec![
            FaultEvent {
                t: 0.25 * setup.horizon,
                kind: FaultKind::GpuSlowdown { gpu: 1, factor: 3.0 },
            },
            FaultEvent { t: 0.75 * setup.horizon, kind: FaultKind::GpuFail { gpu: 1 } },
        ])
        .expect("valid schedule"),
        straggler: StragglerOptions { rel_threshold: 1.25, consecutive: 2 },
        ..FaultOptions::default()
    };
    let report = serve(&setup, &opts(&setup, Some(faults), false));
    let events = report.events.events();
    let evicted = events
        .iter()
        .position(|e| matches!(e, Event::StragglerDetected { gpu: 1, evicted: true, .. }))
        .expect("the straggler is evicted");
    let detected = events
        .iter()
        .position(|e| matches!(e, Event::FaultDetected { gpu: 1, .. }))
        .expect("the failure is detected");
    assert!(evicted < detected, "the eviction precedes the failure");
    assert!(
        events.iter().any(|e| matches!(e, Event::Replan { gpus: 3, .. })),
        "the eviction replans onto three survivors"
    );
    assert!(
        !events.iter().any(|e| matches!(e, Event::Replan { gpus: 2, .. })),
        "the failed device was already evicted: no replan onto two survivors"
    );
    assert_eq!(report.requests_lost, 0);
    assert_eq!(report.completed, TOTAL);
}
