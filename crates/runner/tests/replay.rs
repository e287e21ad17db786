//! Behavioural tests of the discrete-event replay: conservation,
//! determinism, and agreement with the analytic simulator.

use std::sync::Arc;

use exegpt::{RraConfig, ScheduleConfig, TpConfig, WaaConfig, WaaVariant};
use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_runner::{RunError, RunOptions, Runner};
use exegpt_sim::Simulator;
use exegpt_workload::{RequestStream, Task};

fn runner(task: Task) -> Runner {
    let model = ModelConfig::opt_13b();
    let cluster = ClusterSpec::a40_cluster().subcluster(4).expect("fits");
    let profile = Profiler::new(model.clone(), cluster.clone())
        .run(&ProfileOptions::default())
        .expect("profiling succeeds");
    let sim = Simulator::new(model, cluster, Arc::new(profile), task.workload().expect("valid"));
    Runner::from_simulator(sim)
}

fn rra() -> ScheduleConfig {
    ScheduleConfig::Rra(RraConfig::new(16, 16, TpConfig::none()))
}

fn waa() -> ScheduleConfig {
    ScheduleConfig::Waa(WaaConfig::new(2, 3, TpConfig::none(), WaaVariant::Compute))
}

#[test]
fn rra_completes_every_query_and_every_token() {
    let r = runner(Task::Translation);
    let opts = RunOptions { num_queries: 300, seed: 9, ..Default::default() };
    let report = r.run(&rra(), &opts).expect("runs");
    assert_eq!(report.completed, 300);
    assert_eq!(report.latencies.len(), 300);
    // Output lengths are enforced: exactly the sampled token budget is
    // generated — conservation of work.
    let expected: u64 = RequestStream::new(r.simulator().workload(), 9)
        .take(300)
        .map(|q| q.output_len as u64)
        .sum();
    assert_eq!(report.tokens_generated, expected);
    assert!(report.throughput > 0.0 && report.makespan > exegpt_units::Secs::ZERO);
    assert!(report.latencies.iter().all(|&l| l > 0.0 && l.is_finite()));
}

#[test]
fn waa_completes_every_query_and_every_token() {
    let r = runner(Task::Summarization);
    let opts = RunOptions { num_queries: 300, seed: 5, ..Default::default() };
    let report = r.run(&waa(), &opts).expect("runs");
    assert_eq!(report.completed, 300);
    let expected: u64 = RequestStream::new(r.simulator().workload(), 5)
        .take(300)
        .map(|q| q.output_len as u64)
        .sum();
    assert_eq!(report.tokens_generated, expected);
}

#[test]
fn replay_is_deterministic() {
    let r = runner(Task::Translation);
    let opts = RunOptions { num_queries: 150, seed: 3, ..Default::default() };
    let a = r.run(&rra(), &opts).expect("runs");
    let b = r.run(&rra(), &opts).expect("runs");
    assert_eq!(a, b);
    let c = r.run(&rra(), &RunOptions { seed: 4, ..opts }).expect("runs");
    assert_ne!(a, c);
}

#[test]
fn runner_agrees_with_simulator_on_throughput() {
    // The replay uses sampled lengths and dynamic adjustment, the simulator
    // uses expectations: steady-state throughput should agree within ~35%.
    let r = runner(Task::Translation);
    let cfg = RraConfig::new(16, 16, TpConfig::none());
    let est = r.simulator().evaluate_rra(&cfg).expect("feasible");
    let report = r
        .run(&ScheduleConfig::Rra(cfg), &RunOptions { num_queries: 600, ..Default::default() })
        .expect("runs");
    let ratio = report.throughput / est.throughput;
    assert!(
        (0.65..1.55).contains(&ratio),
        "measured {} vs estimated {} (ratio {ratio:.2})",
        report.throughput,
        est.throughput
    );
}

#[test]
fn waa_runner_agrees_with_simulator_on_throughput() {
    let r = runner(Task::Summarization);
    let cfg = WaaConfig::new(2, 3, TpConfig::none(), WaaVariant::Compute);
    let est = r.simulator().evaluate_waa(&cfg).expect("feasible");
    let report = r
        .run(&ScheduleConfig::Waa(cfg), &RunOptions { num_queries: 600, ..Default::default() })
        .expect("runs");
    let ratio = report.throughput / est.throughput;
    assert!(
        (0.6..1.6).contains(&ratio),
        "measured {} vs estimated {} (ratio {ratio:.2})",
        report.throughput,
        est.throughput
    );
}

#[test]
fn decoder_stage_variance_is_small() {
    // Table 7: decoder execution-time variance is low (few percent).
    let r = runner(Task::Summarization);
    let report =
        r.run(&rra(), &RunOptions { num_queries: 500, ..Default::default() }).expect("runs");
    let (mean, half_range) = report.decoder_stage_stats();
    assert!(mean > 0.0);
    assert!(
        half_range / mean < 0.35,
        "decoder stage spread too large: ±{:.1}%",
        100.0 * half_range / mean
    );
}

#[test]
fn kv_peak_is_tracked_and_bounded() {
    let r = runner(Task::Translation);
    let report =
        r.run(&rra(), &RunOptions { num_queries: 300, ..Default::default() }).expect("runs");
    assert!(report.peak_kv_bytes > 0);
    let capacity = r.simulator().usable_capacity();
    assert!(report.peak_kv_bytes + report.param_bytes <= capacity);
}

#[test]
fn infeasible_schedules_are_rejected_up_front() {
    let r = runner(Task::Translation);
    let huge = ScheduleConfig::Rra(RraConfig::new(512, 4, TpConfig::none()));
    assert!(matches!(r.run(&huge, &RunOptions::default()), Err(RunError::Schedule(_))));
}

#[test]
fn invalid_options_are_rejected() {
    let r = runner(Task::Translation);
    let err = r.run(&rra(), &RunOptions { num_queries: 0, ..Default::default() });
    assert!(matches!(err, Err(RunError::InvalidOptions { what: "num_queries", .. })));
}

#[test]
fn t5_runs_both_schedules() {
    let model = ModelConfig::t5_11b();
    let cluster = ClusterSpec::a40_cluster().subcluster(8).expect("fits");
    let profile = Profiler::new(model.clone(), cluster.clone())
        .run(&ProfileOptions::default())
        .expect("profiling succeeds");
    let sim = Simulator::new(
        model,
        cluster,
        Arc::new(profile),
        Task::Summarization.workload().expect("valid"),
    );
    let r = Runner::from_simulator(sim);
    let opts = RunOptions { num_queries: 120, ..Default::default() };
    let rra_rep = r.run(&rra(), &opts).expect("rra runs");
    assert_eq!(rra_rep.completed, 120);
    let waa_rep = r
        .run(
            &ScheduleConfig::Waa(WaaConfig::new(4, 3, TpConfig::none(), WaaVariant::Compute)),
            &opts,
        )
        .expect("waa runs");
    assert_eq!(waa_rep.completed, 120);
}

#[test]
fn observer_sees_every_phase_and_changes_nothing() {
    let r = runner(Task::Translation);
    let opts = RunOptions { num_queries: 150, ..Default::default() };
    for (cfg, coupled) in [(rra(), false), (waa(), true)] {
        let mut records = Vec::new();
        let observed = r.run_observed(&cfg, &opts, |p| records.push(*p)).expect("runs");
        assert_eq!(observed, r.run(&cfg, &opts).expect("runs"), "observing changes nothing");
        assert!(records.iter().all(|p| p.coupled == coupled));
        // Phases tile the run from time zero to the makespan.
        let mut t = 0.0;
        for p in &records {
            assert_eq!(p.span[0], t);
            assert!(p.span[1] >= p.span[0]);
            t = p.span[1];
        }
        assert_eq!(t, observed.makespan.as_secs());
        let encodes = records.iter().filter(|p| p.encode_stage.is_some()).count();
        assert_eq!(encodes, observed.encoder_stage_times.len());
    }
}
