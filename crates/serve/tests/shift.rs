//! Acceptance tests for the serving loop: the §7.6 distribution-shift
//! experiment end-to-end, and byte-determinism of the event log.
//!
//! Setup: OPT-13B on 4×A40 serving translation traffic under a 30 s
//! latency bound. After 500 requests the output-length distribution's mean
//! shifts ×1.5 (Figure 11's "Average" shift). The schedule optimized for
//! the base distribution keeps running in the *static* arm; the *adaptive*
//! arm detects the drift from completed output lengths, refits the
//! distribution, reschedules on the warm engine and swaps plans at a phase
//! boundary. The stale plan's tail latency blows through the SLO on the
//! shifted traffic (its 99th-percentile-sequence latency estimate is well
//! above the bound), so the adaptive arm must end with a strictly lower
//! SLO-violation rate on the very same arrival stream.

use std::sync::{Arc, OnceLock};

use exegpt::{Engine, SchedulerOptions};
use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::{LayerProfile, ProfileOptions, Profiler};
use exegpt_serve::{
    poisson_with_shift, DriftOptions, ServeLoop, ServeOptions, ServeReport, SloTargets,
};
use exegpt_sim::Workload;
use exegpt_units::Secs;
use exegpt_workload::{Task, TimedRequest};

const LATENCY_BOUND: Secs = Secs::new(30.0);
const SHIFT_FACTOR: f64 = 1.5;
const TOTAL: usize = 2000;
const SHIFT_AT: usize = 500;
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

fn engine(workload: &Workload) -> Engine {
    Engine::builder()
        .model(ModelConfig::opt_13b())
        .cluster(ClusterSpec::a40_cluster().subcluster(4).expect("fits"))
        .workload(workload.clone())
        .profile(profile())
        .build()
        .expect("builds")
}

/// The shift stream, the initial schedule, and an SLO/rate pair placed so
/// the experiment discriminates: the arrival rate runs the stale plan near
/// its shifted-workload capacity, and the end-to-end SLO sits between the
/// re-optimized plan's latency estimate and the stale plan's.
struct Setup {
    engine: Engine,
    schedule: exegpt::ScheduleConfig,
    arrivals: Vec<TimedRequest>,
    slo_e2e: Secs,
}

fn setup() -> Setup {
    let base = Task::Translation.workload().expect("valid");
    let shifted = Workload::new(
        base.input().clone(),
        base.output().with_scaled_mean(SHIFT_FACTOR).expect("valid"),
    );
    let engine = engine(&base);
    let schedule = engine.schedule(LATENCY_BOUND).expect("schedules");
    let slo_e2e = LATENCY_BOUND * 1.2;

    // The stale plan on shifted traffic: still memory-feasible (the bound
    // keeps its pool small) but its tail latency exceeds the SLO, while a
    // re-optimized plan honours the bound — the gap the adaptive arm wins.
    let stale = engine
        .simulator()
        .with_workload(shifted.clone())
        .evaluate(&schedule.config)
        .expect("stale plan still runs under the bound");
    let reopt = engine.with_workload(shifted.clone()).schedule(LATENCY_BOUND).expect("schedules");
    assert!(
        stale.latency > slo_e2e && reopt.estimate.latency < slo_e2e,
        "experiment preconditions: stale L99 {:.1}s above the {:.0}s SLO, \
         re-optimized L99 {:.1}s below it",
        stale.latency.as_secs(),
        slo_e2e.as_secs(),
        reopt.estimate.latency.as_secs(),
    );

    let rate = 0.96 * stale.throughput;
    let arrivals = poisson_with_shift(&base, &shifted, rate, SHIFT_AT, TOTAL, SEED);
    Setup { engine, schedule: schedule.config, arrivals, slo_e2e }
}

fn opts(adaptive: bool, slo_e2e: Secs) -> ServeOptions {
    ServeOptions {
        slo: SloTargets::e2e(slo_e2e),
        adaptive,
        scheduler: SchedulerOptions::bounded(LATENCY_BOUND),
        drift: DriftOptions {
            window: 128,
            min_samples: 48,
            check_every: 16,
            rel_threshold: 0.15,
            consecutive: 2,
        },
        ..ServeOptions::default()
    }
}

fn serve(setup: &Setup, adaptive: bool) -> ServeReport {
    ServeLoop::new(setup.engine.clone(), &setup.schedule, opts(adaptive, setup.slo_e2e))
        .expect("feasible")
        .run(setup.arrivals.clone())
        .expect("serves")
}

#[test]
fn adaptive_loop_beats_static_plan_under_shift() {
    let setup = setup();
    let static_report = serve(&setup, false);
    let adaptive_report = serve(&setup, true);

    // Both arms served the full stream and kept their books straight.
    for r in [&static_report, &adaptive_report] {
        assert_eq!(r.completed, TOTAL);
        assert_eq!(r.slo.checked, TOTAL);
        assert!(r.slo.is_consistent(), "inconsistent SLO accounting: {:?}", r.slo);
    }
    assert_eq!(static_report.reschedules, 0, "static arm never reschedules");
    assert_eq!(static_report.plan_swaps, 0);

    // The adaptive arm detected the drift and swapped plans mid-run.
    assert!(adaptive_report.drift_checks > 0, "drift checks ran");
    assert!(adaptive_report.reschedules >= 1, "drift triggered a live reschedule");
    assert!(adaptive_report.plan_swaps >= 1, "the new plan was installed");

    // The stale plan does violate the SLO on shifted traffic...
    assert!(
        static_report.slo.violations > 0,
        "the static arm must incur SLO violations for the comparison to be meaningful"
    );
    // ...and the acceptance criterion: strictly fewer violations on the
    // same stream (Figure 11's re-optimization benefit, measured
    // end-to-end through the serving loop).
    assert!(
        adaptive_report.slo.violation_rate() < static_report.slo.violation_rate(),
        "adaptive ({:.3}) must strictly beat static ({:.3}) on SLO violation rate",
        adaptive_report.slo.violation_rate(),
        static_report.slo.violation_rate(),
    );
}

#[test]
fn static_plan_event_log_is_byte_identical_across_runs() {
    // The static path leans on the runner's KV tracker bookkeeping
    // (ordered maps only, see clippy.toml); two runs must not differ by a
    // single byte.
    let setup = setup();
    let a = serve(&setup, false);
    let b = serve(&setup, false);
    let ja = a.events.to_jsonl();
    let jb = b.events.to_jsonl();
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "static serve runs must be byte-deterministic");
}

#[test]
fn event_log_is_byte_identical_across_runs() {
    let setup = setup();
    let a = serve(&setup, true);
    let b = serve(&setup, true);
    let ja = a.events.to_jsonl();
    let jb = b.events.to_jsonl();
    assert!(!ja.is_empty());
    assert_eq!(ja, jb, "adaptive serve runs must be byte-deterministic");
    // The metrics snapshot is equally deterministic.
    assert_eq!(
        serde_json::to_string(&a.metrics).expect("serializes"),
        serde_json::to_string(&b.metrics).expect("serializes"),
    );
}
