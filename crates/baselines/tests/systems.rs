//! Cross-system behaviour: each baseline runs, respects its planning
//! protocol, and the qualitative orderings the paper reports hold.

use std::sync::Arc;

use exegpt_baselines::{FasterTransformer, IterationLevel, Orca};
use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_runner::{RunError, RunOptions};
use exegpt_sim::Simulator;
use exegpt_units::Secs;
use exegpt_workload::Task;

/// The paper's §7.2 comparison setup: OPT-13B on four A40s.
fn sim(task: Task) -> Simulator {
    let model = ModelConfig::opt_13b();
    let cluster = ClusterSpec::a40_cluster().subcluster(4).expect("fits");
    let profile = Profiler::new(model.clone(), cluster.clone())
        .run(&ProfileOptions::default())
        .expect("profiles");
    Simulator::new(model, cluster, Arc::new(profile), task.workload().expect("valid"))
}

#[test]
fn every_system_completes_a_run() {
    let opts = RunOptions { num_queries: 120, ..Default::default() };
    let s = sim(Task::Translation);

    let ft = FasterTransformer::paper_default(s.clone()).expect("grid");
    let r = ft.run(16, &opts).expect("ft runs");
    assert_eq!(r.completed, 120);

    let dsi = FasterTransformer::deepspeed(s.clone()).expect("single node");
    let r = dsi.run(16, &opts).expect("dsi runs");
    assert_eq!(r.completed, 120);

    let orca = Orca::new(s.clone(), IterationLevel::orca()).expect("grid");
    let r = orca.run(32, &opts).expect("orca runs");
    assert_eq!(r.completed, 120);

    let vllm = Orca::new(s, IterationLevel::vllm()).expect("grid");
    let r = vllm.run(32, &opts).expect("vllm runs");
    assert_eq!(r.completed, 120);
}

#[test]
fn ft_beats_vllm_on_the_paper_setup() {
    // Figure 7: FT outperforms vLLM for all tasks on OPT-13B / 4xA40,
    // which the paper attributes to vLLM's host overhead.
    let s = sim(Task::Translation);
    let ft = FasterTransformer::paper_default(s.clone()).expect("grid");
    let vllm = Orca::new(s, IterationLevel::vllm()).expect("grid");
    let ft_best = ft.plan(Secs::INFINITY).expect("feasible").1.throughput;
    let vllm_best = vllm.plan(Secs::INFINITY).expect("feasible").1.throughput;
    assert!(ft_best > vllm_best, "FT {ft_best:.2} q/s should beat vLLM {vllm_best:.2} q/s");
}

#[test]
fn ft_beats_dsi_on_the_paper_setup() {
    let s = sim(Task::Summarization);
    let ft = FasterTransformer::paper_default(s.clone()).expect("grid");
    let dsi = FasterTransformer::deepspeed(s).expect("single node");
    let ft_best = ft.plan(Secs::INFINITY).expect("feasible").1.throughput;
    let dsi_best = dsi.plan(Secs::INFINITY).expect("feasible").1.throughput;
    assert!(ft_best > dsi_best, "FT {ft_best:.2} should beat DSI {dsi_best:.2}");
}

#[test]
fn orca_admits_greedily_vllm_one_at_a_time() {
    let opts = RunOptions { num_queries: 150, ..Default::default() };
    let s = sim(Task::Summarization);
    let orca = Orca::new(s.clone(), IterationLevel::orca()).expect("grid");
    let vllm = Orca::new(s, IterationLevel::vllm()).expect("grid");
    let ro = orca.run(32, &opts).expect("runs");
    let rv = vllm.run(32, &opts).expect("runs");
    // ORCA refills all free slots per iteration: fewer, larger prefills.
    let orca_prefills = ro.encoder_stage_times.len();
    let vllm_prefills = rv.encoder_stage_times.len();
    assert!(
        vllm_prefills > orca_prefills,
        "vLLM ({vllm_prefills}) should prefill more often than ORCA ({orca_prefills})"
    );
}

#[test]
fn iteration_level_latency_jitters_with_admissions() {
    // §2: ORCA's encoding-inside-decoding makes latency variable. Compare
    // the spread of per-query latency against FT's lockstep batches.
    let opts = RunOptions { num_queries: 200, ..Default::default() };
    let s = sim(Task::Translation);
    let orca = Orca::new(s.clone(), IterationLevel::orca()).expect("grid");
    let r = orca.run(32, &opts).expect("runs");
    let (mean, spread) = {
        let m = exegpt_dist::stats::mean(&r.latencies).expect("non-empty");
        let s = exegpt_dist::stats::std_dev(&r.latencies).expect("non-empty");
        (m, s)
    };
    assert!(spread / mean > 0.05, "expected visible latency jitter");
}

#[test]
fn dsi_rejects_multi_node_clusters() {
    let model = ModelConfig::gpt3_39b();
    let cluster = ClusterSpec::a40_cluster().subcluster(16).expect("fits");
    let profile = Profiler::new(model.clone(), cluster.clone())
        .run(&ProfileOptions::default())
        .expect("profiles");
    let s = Simulator::new(
        model,
        cluster,
        Arc::new(profile),
        Task::Translation.workload().expect("valid"),
    );
    assert!(FasterTransformer::deepspeed(s).is_err());
}

#[test]
fn ft_kv_reservation_dwarfs_iteration_level() {
    // Figure 9's mechanism: up-front reservation for max-length outputs
    // holds far more cache than incremental/paged disciplines.
    let opts = RunOptions { num_queries: 100, ..Default::default() };
    let s = sim(Task::Summarization);
    let ft = FasterTransformer::paper_default(s.clone()).expect("grid");
    let orca = Orca::new(s, IterationLevel::orca()).expect("grid");
    let rf = ft.run(32, &opts).expect("runs");
    let ro = orca.run(32, &opts).expect("runs");
    assert!(
        rf.peak_kv_bytes > ro.peak_kv_bytes,
        "FT {:.2} GiB should exceed ORCA {:.2} GiB",
        rf.peak_kv_bytes as f64 / 1e9,
        ro.peak_kv_bytes as f64 / 1e9
    );
}

#[test]
fn planning_respects_bounds_for_all_systems() {
    let s = sim(Task::Translation);
    let ft = FasterTransformer::paper_default(s.clone()).expect("grid");
    let bounds = exegpt_workload::latency_bounds(&ft.latency_sweep()).expect("non-empty");
    for bound in &bounds[..3] {
        if let Some((_, est)) = ft.plan(*bound) {
            assert!(est.latency <= *bound);
        }
        let vllm = Orca::new(s.clone(), IterationLevel::vllm()).expect("grid");
        if let Some((_, est)) = vllm.plan(*bound) {
            assert!(est.latency <= *bound);
        }
    }
}

#[test]
fn baselines_reject_options_they_cannot_honour() {
    // An invalid request is an error, not numbers.
    let s = sim(Task::Translation);
    let ft = FasterTransformer::paper_default(s.clone()).expect("grid");
    let orca = Orca::new(s, IterationLevel::orca()).expect("grid");
    let base = RunOptions { num_queries: 40, ..Default::default() };
    let bad = [
        ("num_queries", RunOptions { num_queries: 0, ..base.clone() }),
        ("warmup_frac", RunOptions { warmup_frac: 1.0, ..base.clone() }),
    ];
    for (option, opts) in &bad {
        for (system, result) in [("FT", ft.run(16, opts)), ("ORCA", orca.run(16, opts))] {
            assert!(
                matches!(&result, Err(RunError::InvalidOptions { what, .. }) if what == option),
                "{system} must reject {option}: {result:?}"
            );
        }
    }
    assert!(ft.run(16, &base).is_ok() && orca.run(16, &base).is_ok());
}
