//! Incremental replanning must be a pure optimization: for every shipped
//! replan scenario (workload drift, device failure, recovery) the chosen
//! plan is byte-identical to the full search's, the plan invariants hold on
//! it, and the verified fallback engages whenever the neighborhood cannot
//! certify optimality. What it saves is gated here in evaluation counts,
//! which are deterministic; its wall-clock cost is measured by the
//! `serve-adapt` and `sched-paper` workloads of `benchmark/`.

use std::sync::OnceLock;

use exegpt::{
    Engine, PlanInvariants, Policy, Replan, ReplanDelta, Schedule, ScheduleConfig, SchedulerOptions,
};
use exegpt_cluster::ClusterSpec;
use exegpt_dist::LengthDist;
use exegpt_model::ModelConfig;
use exegpt_sim::Workload;
use exegpt_units::Secs;

/// OPT-13B on four A40s serving the paper's summarization task S, profiled
/// once for the whole suite.
fn engine_task_s() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        Engine::builder()
            .model(ModelConfig::opt_13b())
            .cluster(ClusterSpec::a40_cluster().subcluster(4).expect("fits"))
            .workload(task_s())
            .build()
            .expect("builds")
    })
}

fn task_s() -> Workload {
    Workload::new(
        LengthDist::truncated_normal(256.0, 252.0, 512).expect("valid"),
        LengthDist::truncated_normal(32.0, 13.0, 80).expect("valid"),
    )
}

/// Task S with its output lengths drifted 1.5x (the shift experiments).
fn task_s_drifted() -> Workload {
    Workload::new(
        LengthDist::truncated_normal(256.0, 252.0, 512).expect("valid"),
        LengthDist::truncated_normal(48.0, 19.5, 120).expect("valid"),
    )
}

/// The replanned plan must match the full search byte-for-byte in what is
/// served (`config` and `estimate`; the `evals`/`cache_hits` counters
/// legitimately differ between the two paths), and must satisfy the runtime
/// plan invariants on the engine that will serve it. Returns the full
/// search's schedule.
fn assert_replays_full_search(
    engine: &Engine,
    replan: &Replan,
    opts: &SchedulerOptions,
) -> Schedule {
    let full = engine.schedule_with(opts).expect("full search feasible");
    assert_eq!(replan.schedule.config, full.config, "replan chose a different plan");
    assert_eq!(replan.schedule.estimate, full.estimate, "replan estimate diverged");
    PlanInvariants::check(engine.simulator(), &replan.schedule).expect("plan invariants hold");
    full
}

/// The replan evaluated at most `1/fraction` of what the full search did.
/// `evals` counts every estimate lookup, hit or miss, so it does not depend
/// on what the shared cache already holds.
fn assert_evals_within(scenario: &str, replan: &Replan, full: &Schedule, fraction: usize) {
    assert!(
        replan.schedule.evals * fraction <= full.evals,
        "{scenario}: replan evaluated {} configurations, more than 1/{fraction} of the full \
         search's {}",
        replan.schedule.evals,
        full.evals
    );
}

#[test]
fn drift_replans_match_the_full_search() {
    for bound in [Secs::new(10.0), Secs::new(30.0), Secs::INFINITY] {
        let opts = SchedulerOptions::bounded(bound);
        let incumbent = engine_task_s().schedule_with(&opts).expect("feasible");
        let mut engine = engine_task_s().clone();
        let replan = engine
            .reschedule_incremental(task_s_drifted(), &incumbent, &opts)
            .expect("replan feasible");
        assert!(!replan.fell_back, "bound {bound}: drift replan fell back to the full search");
        assert!(replan.neighborhood_tasks > 0);
        let full = assert_replays_full_search(&engine, &replan, &opts);
        if bound == Secs::new(30.0) {
            assert_evals_within("drift", &replan, &full, 3);
        }
    }
}

#[test]
fn fault_and_recovery_replans_match_the_full_search() {
    let opts = SchedulerOptions::bounded(Secs::new(30.0));
    let incumbent = engine_task_s().schedule_with(&opts).expect("feasible");

    // One device fails: replan on the survivors.
    let survivors = engine_task_s().simulator().cluster().survivors(1).expect("three left");
    let lost = engine_task_s().simulator().cluster().total_gpus() - survivors.total_gpus();
    let degraded = engine_task_s().with_cluster(survivors);
    let delta = ReplanDelta { gpu_delta: -(lost as isize), workload_changed: false };
    let after_fault = degraded.replan_from(&incumbent, delta, &opts).expect("replan feasible");
    assert!(!after_fault.fell_back, "fault replan fell back to the full search");
    let full = assert_replays_full_search(&degraded, &after_fault, &opts);
    assert_evals_within("fault", &after_fault, &full, 3);

    // The device comes back: replan from the degraded plan onto the
    // original topology.
    let recovered = degraded.with_cluster(engine_task_s().simulator().cluster().clone());
    let delta = ReplanDelta { gpu_delta: lost as isize, workload_changed: false };
    let after_recovery =
        recovered.replan_from(&after_fault.schedule, delta, &opts).expect("replan feasible");
    assert!(!after_recovery.fell_back, "recovery replan fell back to the full search");
    assert_replays_full_search(&recovered, &after_recovery, &opts);
    // Recovery lands back on the original plan.
    assert_eq!(after_recovery.schedule.config, incumbent.config);
    assert_eq!(after_recovery.schedule.estimate, incumbent.estimate);
    assert_evals_within("recovery", &after_recovery, &incumbent, 4);

    // Replanning the recovery again finds every point it probes cached.
    let again =
        recovered.replan_from(&after_fault.schedule, delta, &opts).expect("replan feasible");
    assert!(!again.fell_back, "repeated recovery replan fell back to the full search");
    assert_eq!(again.schedule.config, incumbent.config);
    assert!(
        again.schedule.cache_hits >= again.schedule.evals,
        "repeated recovery replan missed the warm cache ({} hits for {} evals)",
        again.schedule.cache_hits,
        again.schedule.evals
    );
}

#[test]
fn every_search_is_accounted_for() {
    let opts = SchedulerOptions::bounded(Secs::new(30.0));
    let incumbent = engine_task_s().schedule_with(&opts).expect("feasible");
    let mut engine = engine_task_s().clone();
    let replan = engine
        .reschedule_incremental(task_s_drifted(), &incumbent, &opts)
        .expect("replan feasible");
    // The certification sweep decides every task outside the warm results;
    // none may be silently dropped.
    assert!(replan.certified_tasks + replan.exact_tasks + replan.full_tasks > 0);
    assert!(
        replan.certified_tasks > replan.full_tasks,
        "the probe should exclude most of the portfolio cheaply \
         (certified {} vs full {})",
        replan.certified_tasks,
        replan.full_tasks
    );
}

#[test]
fn an_uncoverable_incumbent_takes_the_verified_fallback() {
    let base = SchedulerOptions::bounded(Secs::new(30.0));
    let incumbent = engine_task_s().schedule_with(&base).expect("feasible");
    // Restrict the portfolio to policies the incumbent does not belong to:
    // the neighborhood is empty, so the replanner must run the full search
    // rather than guess.
    let other = match incumbent.config {
        ScheduleConfig::Rra(_) => vec![Policy::WaaCompute, Policy::WaaMemory],
        ScheduleConfig::Waa(_) => vec![Policy::Rra],
    };
    let opts = SchedulerOptions { policies: other, ..base };
    let replan = engine_task_s()
        .replan_from(&incumbent, ReplanDelta::default(), &opts)
        .expect("replan feasible");
    assert!(replan.fell_back, "an empty neighborhood must fall back");
    assert_replays_full_search(engine_task_s(), &replan, &opts);
}
