//! Planning-protocol invariants shared by every baseline: bounds are
//! respected, relaxing a bound never hurts, and estimates track replays.

use std::sync::Arc;

use exegpt_baselines::{FasterTransformer, IterationLevel, Orca};
use exegpt_cluster::ClusterSpec;
use exegpt_dist::LengthDist;
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_runner::RunOptions;
use exegpt_sim::{Simulator, Workload};
use exegpt_workload::Task;

fn sim(task: Task) -> Simulator {
    let model = ModelConfig::opt_13b();
    let cluster = ClusterSpec::a40_cluster().subcluster(4).expect("fits");
    let profile = Profiler::new(model.clone(), cluster.clone())
        .run(&ProfileOptions::default())
        .expect("profiles");
    Simulator::new(model, cluster, Arc::new(profile), task.workload().expect("valid"))
}

/// Relaxing the bound never lowers any system's planned throughput.
#[test]
fn planned_throughput_is_monotone_in_the_bound() {
    let s = sim(Task::ConversationalQa1);
    let ft = FasterTransformer::paper_default(s.clone()).expect("grid");
    let bounds = exegpt_workload::latency_bounds(&ft.latency_sweep()).expect("non-empty");

    let check = |name: &str, plans: Vec<Option<f64>>| {
        let mut last = 0.0f64;
        for (i, t) in plans.into_iter().enumerate() {
            if let Some(t) = t {
                assert!(t >= last - 1e-9, "{name}: bound {i} planned {t} below earlier {last}");
                last = t;
            }
        }
        assert!(last > 0.0, "{name}: the infinite bound must be plannable");
    };

    check("FT", bounds.iter().map(|&b| ft.plan(b).map(|(_, e)| e.throughput)).collect());
    let dsi = FasterTransformer::deepspeed(s.clone()).expect("single node");
    check("DSI", bounds.iter().map(|&b| dsi.plan(b).map(|(_, e)| e.throughput)).collect());
    let orca = Orca::new(s.clone(), IterationLevel::orca()).expect("grid");
    check("ORCA", bounds.iter().map(|&b| orca.plan(b).map(|(_, e)| e.throughput)).collect());
    let vllm = Orca::new(s, IterationLevel::vllm()).expect("grid");
    check("vLLM", bounds.iter().map(|&b| vllm.plan(b).map(|(_, e)| e.throughput)).collect());
}

/// Every planned configuration's estimate respects the bound it was planned
/// for, across all five tasks.
#[test]
fn plans_respect_their_bounds_on_all_tasks() {
    for task in Task::all() {
        let s = sim(task);
        let ft = FasterTransformer::paper_default(s.clone()).expect("grid");
        let bounds = exegpt_workload::latency_bounds(&ft.latency_sweep()).expect("non-empty");
        for &b in &bounds {
            if let Some((_, est)) = ft.plan(b) {
                assert!(est.latency <= b, "{task}: FT {} > {b}", est.latency);
            }
            let orca = Orca::new(s.clone(), IterationLevel::orca()).expect("grid");
            if let Some((_, est)) = orca.plan(b) {
                assert!(est.latency <= b, "{task}: ORCA {} > {b}", est.latency);
            }
        }
    }
}

/// FT's estimate is *conservative* relative to its replay: the estimate
/// decodes every batch to the distribution maximum, so measured throughput
/// on sampled lengths is at least the planned one.
#[test]
fn ft_estimates_are_conservative() {
    let s = sim(Task::Translation);
    let ft = FasterTransformer::paper_default(s).expect("grid");
    for batch in [8usize, 32, 64] {
        let est = ft.estimate(batch).expect("feasible");
        let rep = ft
            .run(batch, &RunOptions { num_queries: 4 * batch, ..Default::default() })
            .expect("runs");
        assert!(
            rep.throughput >= est.throughput * 0.95,
            "batch {batch}: measured {} vs planned {}",
            rep.throughput,
            est.throughput
        );
    }
}

/// With every input 128 tokens and every output the maximum, 64, FT's replay
/// runs exactly the batches its estimate prices. On one pipeline stage the
/// two agree to rounding. On two, the estimate also pays `(stages - 1)`
/// pipeline fills of the decode, which the replay never pays: a known
/// deviation of the estimate, under 1 % here.
#[test]
fn ft_estimate_matches_its_replay_on_point_mass_lengths() {
    let ft = |model: ModelConfig, gpus: usize| {
        let cluster = ClusterSpec::a40_cluster().subcluster(gpus).expect("fits");
        let profile = Profiler::new(model.clone(), cluster.clone())
            .run(&ProfileOptions::default())
            .expect("profiles");
        let workload = Workload::new(
            LengthDist::point_mass(128, 128).expect("valid"),
            LengthDist::point_mass(64, 64).expect("valid"),
        );
        let sim = Simulator::new(model, cluster, Arc::new(profile), workload);
        FasterTransformer::paper_default(sim).expect("grid")
    };
    // The estimate's latency over each replayed query's, minus one.
    let gaps = |ft: &FasterTransformer, batch: usize| {
        let est = ft.estimate(batch).expect("feasible").latency.as_secs();
        let opts = RunOptions { num_queries: 2 * batch, ..Default::default() };
        let rep = ft.run(batch, &opts).expect("runs");
        assert_eq!(rep.latencies.len(), 2 * batch);
        rep.latencies.iter().map(|&l| est / l - 1.0).collect::<Vec<f64>>()
    };
    let one_stage = ft(ModelConfig::opt_13b(), 4);
    for batch in [4, 8, 16, 32] {
        for gap in gaps(&one_stage, batch) {
            assert!(gap.abs() <= 1e-12, "one stage, batch {batch}: gap {gap:e}");
        }
    }
    for model in [ModelConfig::opt_13b(), ModelConfig::gpt3_39b()] {
        let two_stages = ft(model, 16);
        for batch in [4, 8, 16, 32] {
            for gap in gaps(&two_stages, batch) {
                assert!(gap > 0.0 && gap < 0.01, "two stages, batch {batch}: gap {gap:e}");
            }
        }
    }
}

/// ORCA's estimate tracks its replay within a modest tolerance (both
/// directions): the iteration-level steady state is well modelled.
#[test]
fn orca_estimates_track_replays() {
    let s = sim(Task::Summarization);
    let orca = Orca::new(s, IterationLevel::orca()).expect("grid");
    let est = orca.estimate(64).expect("feasible");
    let rep = orca.run(64, &RunOptions { num_queries: 600, ..Default::default() }).expect("runs");
    let ratio = rep.throughput / est.throughput;
    assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
}
