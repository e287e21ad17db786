//! End-to-end behaviour of the constraint-aware scheduler.

use exegpt::{Engine, Policy, Schedule, ScheduleConfig, ScheduleError, SchedulerOptions};
use exegpt_cluster::ClusterSpec;
use exegpt_dist::LengthDist;
use exegpt_model::ModelConfig;
use exegpt_sim::Workload;
use exegpt_units::Secs;

/// OPT-13B on four A40s serving the paper's summarization task S.
fn engine_task_s() -> Engine {
    Engine::builder()
        .model(ModelConfig::opt_13b())
        .cluster(ClusterSpec::a40_cluster().subcluster(4).expect("fits"))
        .workload(Workload::new(
            LengthDist::truncated_normal(256.0, 252.0, 512).expect("valid"),
            LengthDist::truncated_normal(32.0, 13.0, 80).expect("valid"),
        ))
        .build()
        .expect("builds")
}

#[test]
fn schedules_satisfy_their_latency_bound() {
    let engine = engine_task_s();
    for bound in [5.0, 10.0, 30.0].map(Secs::new) {
        let s = engine.schedule(bound).expect("feasible");
        assert!(
            s.estimate.latency <= bound * 1.0001,
            "bound {bound}: selected latency {}",
            s.estimate.latency
        );
        assert!(s.estimate.throughput > 0.0);
    }
}

#[test]
fn relaxing_the_bound_never_hurts_throughput() {
    // The essence of constraint-aware scheduling: the feasible set only
    // grows as the bound relaxes (Table 6's trend).
    let engine = engine_task_s();
    let mut last = 0.0;
    for bound in [4.0, 8.0, 16.0, 64.0, f64::INFINITY].map(Secs::new) {
        if let Ok(s) = engine.schedule(bound) {
            assert!(
                s.estimate.throughput >= last * 0.999,
                "throughput regressed at bound {bound}: {} < {last}",
                s.estimate.throughput
            );
            last = s.estimate.throughput;
        }
    }
    assert!(last > 0.0, "the unconstrained case must be feasible");
}

#[test]
fn impossible_bound_is_reported() {
    let engine = engine_task_s();
    let err = engine.schedule(Secs::new(1e-3)).expect_err("1 ms is impossible");
    assert!(matches!(err, ScheduleError::NoFeasibleSchedule { .. }));
}

#[test]
fn policy_restriction_is_respected() {
    let engine = engine_task_s();
    let opts = SchedulerOptions {
        policies: vec![Policy::Rra],
        ..SchedulerOptions::bounded(Secs::INFINITY)
    };
    let s = engine.schedule_with(&opts).expect("feasible");
    assert!(matches!(s.config, ScheduleConfig::Rra(_)));

    let opts = SchedulerOptions {
        policies: vec![Policy::WaaCompute],
        ..SchedulerOptions::bounded(Secs::INFINITY)
    };
    let s = engine.schedule_with(&opts).expect("feasible");
    assert!(matches!(s.config, ScheduleConfig::Waa(_)));
}

#[test]
fn portfolio_beats_or_matches_each_single_policy() {
    let engine = engine_task_s();
    let bound = Secs::new(12.0);
    let all = engine.schedule(bound).expect("feasible").estimate.throughput;
    for policy in Policy::all() {
        let opts = SchedulerOptions { policies: vec![policy], ..SchedulerOptions::bounded(bound) };
        if let Ok(s) = engine.schedule_with(&opts) {
            assert!(
                all >= s.estimate.throughput * 0.999,
                "{policy:?} alone beat the portfolio: {} > {all}",
                s.estimate.throughput
            );
        }
    }
}

#[test]
fn invalid_options_are_rejected() {
    let engine = engine_task_s();
    let err = engine.schedule(Secs::ZERO).expect_err("zero bound");
    assert!(matches!(err, ScheduleError::InvalidOptions { what: "latency_bound", .. }));
    let opts = SchedulerOptions { policies: vec![], ..SchedulerOptions::bounded(Secs::new(10.0)) };
    assert!(matches!(
        engine.schedule_with(&opts),
        Err(ScheduleError::InvalidOptions { what: "policies", .. })
    ));
    let opts =
        SchedulerOptions { eps_latency_frac: 1.5, ..SchedulerOptions::bounded(Secs::new(10.0)) };
    assert!(matches!(
        engine.schedule_with(&opts),
        Err(ScheduleError::InvalidOptions { what: "eps_latency_frac", .. })
    ));
    let opts = SchedulerOptions { max_b_e: Some(0), ..SchedulerOptions::bounded(Secs::new(10.0)) };
    assert!(matches!(
        engine.schedule_with(&opts),
        Err(ScheduleError::InvalidOptions { what: "max_b_e", .. })
    ));
    let opts = SchedulerOptions { max_n_d: Some(0), ..SchedulerOptions::bounded(Secs::new(10.0)) };
    assert!(matches!(
        engine.schedule_with(&opts),
        Err(ScheduleError::InvalidOptions { what: "max_n_d", .. })
    ));
}

#[test]
fn sequential_and_parallel_search_agree() {
    let engine = engine_task_s();
    let bound = Secs::new(10.0);
    let par = engine
        .schedule_with(&SchedulerOptions { parallel: true, ..SchedulerOptions::bounded(bound) })
        .expect("feasible");
    let seq = engine
        .schedule_with(&SchedulerOptions { parallel: false, ..SchedulerOptions::bounded(bound) })
        .expect("feasible");
    assert_eq!(par.config, seq.config);
    assert_eq!(par.estimate, seq.estimate);
}

#[test]
fn schedule_is_deterministic_across_pool_widths() {
    // The determinism contract: byte-for-byte identical results (including
    // the evals and cache_hits counters) for serial execution and for any
    // search-pool width. A fresh engine per run keeps the evaluation cache
    // cold, so the counters are comparable too.
    let bound = Secs::new(10.0);
    let run = |parallel: bool, pool_threads: Option<usize>| {
        engine_task_s()
            .schedule_with(&SchedulerOptions {
                parallel,
                pool_threads,
                ..SchedulerOptions::bounded(bound)
            })
            .expect("feasible")
    };
    let reference = run(false, None);
    assert_eq!(reference, run(true, None), "auto-width pool diverged from serial");
    for width in [1, 2, 3, 8] {
        assert_eq!(reference, run(true, Some(width)), "pool width {width} diverged");
    }
}

#[test]
fn a_remembered_search_is_the_cold_one_at_every_pool_width() {
    // The pool width is not part of a search's memo key, since the result
    // does not depend on it: on one engine the first run searches, and
    // every later run is remembered whatever its width, reporting each of
    // its lookups as a cache hit.
    let engine = engine_task_s();
    let opts = |parallel: bool, pool_threads: Option<usize>| SchedulerOptions {
        parallel,
        pool_threads,
        ..SchedulerOptions::bounded(Secs::new(10.0))
    };
    let cold = engine.schedule_with(&opts(true, Some(2))).expect("feasible");
    assert_eq!(cold.cache_hits, 0, "a cold search answers nothing from the cache");
    let remembered = Schedule { cache_hits: cold.evals, ..cold.clone() };
    for (parallel, width) in [(false, None), (true, None), (true, Some(1)), (true, Some(3))] {
        let again = engine.schedule_with(&opts(parallel, width)).expect("feasible");
        assert_eq!(again, remembered, "parallel={parallel} width={width:?}");
    }
    assert_eq!(engine.simulator().cache_stats().hits, 4);

    // An infeasible bound is remembered too.
    let ns = SchedulerOptions::bounded(Secs::new(1e-3));
    for _ in 0..2 {
        let err = engine.schedule_with(&ns).expect_err("1 ms is impossible");
        assert!(matches!(err, ScheduleError::NoFeasibleSchedule { .. }));
    }
    let stats = engine.simulator().cache_stats();
    assert_eq!((stats.hits, stats.misses), (5, 2));
}

#[test]
fn repeated_scheduling_hits_the_shared_cache() {
    let engine = engine_task_s();
    let first = engine.schedule(Secs::new(10.0)).expect("feasible");
    let second = engine.schedule(Secs::new(10.0)).expect("feasible");
    assert_eq!(first.config, second.config);
    assert_eq!(first.estimate, second.estimate);
    assert!(
        second.cache_hits > first.cache_hits,
        "a re-run on a warm engine must answer more lookups from the cache \
         ({} vs {})",
        second.cache_hits,
        first.cache_hits
    );
}

#[test]
fn rescheduling_for_a_new_workload_reuses_the_profile() {
    let engine = engine_task_s();
    // Shift to longer outputs (task-T-like); schedules still found.
    let shifted = engine.with_workload(Workload::new(
        LengthDist::truncated_normal(128.0, 81.0, 256).expect("valid"),
        LengthDist::truncated_normal(128.0, 68.0, 320).expect("valid"),
    ));
    let s = shifted.schedule(Secs::INFINITY).expect("feasible");
    assert!(s.estimate.throughput > 0.0 && s.estimate.throughput.is_finite());
    // Longer outputs mean ~4x the decode tokens per query; the optimizer
    // must adapt the configuration rather than reuse task S's choice.
    let base = engine.schedule(Secs::INFINITY).expect("feasible");
    assert_ne!(s.config, base.config, "schedule should adapt to the new workload");
}
