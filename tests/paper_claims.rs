//! Qualitative claims of the paper's evaluation, checked end to end on the
//! simulated substrate (the quantitative shapes live in `EXPERIMENTS.md`).

use exegpt::{Engine, Policy, SchedulerOptions};
use exegpt_baselines::{FasterTransformer, IterationLevel, Orca};
use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_runner::RunOptions;
use exegpt_sim::Simulator;
use exegpt_units::Secs;
use exegpt_workload::{Dataset, Task};

fn sim(task: Task) -> Simulator {
    let model = ModelConfig::opt_13b();
    let cluster = ClusterSpec::a40_cluster().subcluster(4).expect("fits");
    let profile = exegpt_profiler::Profiler::new(model.clone(), cluster.clone())
        .run(&exegpt_profiler::ProfileOptions::default())
        .expect("profiles");
    Simulator::new(model, cluster, profile.into(), task.workload().expect("valid"))
}

/// §7.2 / Figure 7: FT outperforms DSI, ORCA and vLLM on OPT-13B / 4xA40
/// at the unconstrained bound.
#[test]
fn ft_tops_the_existing_systems() {
    let s = sim(Task::Summarization);
    let ft = FasterTransformer::paper_default(s.clone()).expect("grid");
    let ft_best = ft.plan(Secs::INFINITY).expect("feasible").1.throughput;
    let orca = Orca::new(s.clone(), IterationLevel::orca()).expect("grid");
    let vllm = Orca::new(s, IterationLevel::vllm()).expect("grid");
    assert!(ft_best > orca.plan(Secs::INFINITY).expect("feasible").1.throughput);
    assert!(ft_best > vllm.plan(Secs::INFINITY).expect("feasible").1.throughput);
}

/// §2: iteration-level scheduling struggles to meet tight latency bounds
/// that FT (and ExeGPT) can satisfy.
#[test]
fn iteration_level_misses_tight_bounds() {
    let s = sim(Task::Translation);
    let ft = FasterTransformer::paper_default(s.clone()).expect("grid");
    let tight = exegpt_workload::latency_bounds(&ft.latency_sweep()).expect("non-empty")[0];
    assert!(ft.plan(tight).is_some(), "FT satisfies its own tight bound");
    let vllm = Orca::new(s, IterationLevel::vllm()).expect("grid");
    assert!(vllm.plan(tight).is_none(), "vLLM cannot satisfy the tight bound");
}

/// §4.1: WAA is competitive for short-output tasks, while RRA leads on the
/// long-output translation task (unconstrained bound, estimates).
#[test]
fn policy_strengths_follow_output_length() {
    let tput = |task: Task, policies: Vec<Policy>| {
        let engine = Engine::builder()
            .model(ModelConfig::opt_13b())
            .cluster(ClusterSpec::a40_cluster().subcluster(4).expect("fits"))
            .workload(task.workload().expect("valid"))
            .build()
            .expect("builds");
        engine
            .schedule_with(&SchedulerOptions {
                policies,
                ..SchedulerOptions::bounded(Secs::INFINITY)
            })
            .map(|s| s.estimate.throughput)
            .unwrap_or(0.0)
    };
    let waa = vec![Policy::WaaCompute, Policy::WaaMemory];
    // Short outputs (task S): WAA within striking distance of RRA.
    let s_rra = tput(Task::Summarization, vec![Policy::Rra]);
    let s_waa = tput(Task::Summarization, waa.clone());
    assert!(s_waa > 0.55 * s_rra, "task S: WAA {s_waa:.1} vs RRA {s_rra:.1}");
    // Long outputs (task T): RRA ahead of WAA.
    let t_rra = tput(Task::Translation, vec![Policy::Rra]);
    let t_waa = tput(Task::Translation, waa);
    assert!(t_rra > t_waa, "task T: RRA {t_rra:.1} vs WAA {t_waa:.1}");
}

/// §7.5: the long-tailed real-world surrogate (Alpaca) widens ExeGPT's
/// margin over FT relative to the matching synthetic task.
#[test]
fn real_world_tails_widen_the_gap() {
    let (est_split, _) = Dataset::alpaca(3000, 5).split(0.1);
    let workload = est_split.estimate_workload().expect("non-empty");
    let engine = Engine::builder()
        .model(ModelConfig::opt_13b())
        .cluster(ClusterSpec::a40_cluster().subcluster(4).expect("fits"))
        .workload(workload)
        .build()
        .expect("builds");
    let ft = FasterTransformer::paper_default(engine.simulator().clone()).expect("grid");
    let ft_best = ft.plan(Secs::INFINITY).expect("feasible").1.throughput;
    let ex = engine.schedule(Secs::INFINITY).expect("feasible").estimate.throughput;
    assert!(ex > 2.0 * ft_best, "long-tail dataset: ExeGPT {ex:.1} should be >2x FT {ft_best:.1}");
}

/// §7.1's bound protocol produces bounds every system can be planned
/// against without panicking, across all five tasks.
#[test]
fn bound_protocol_is_total() {
    for task in Task::all() {
        let s = sim(task);
        let ft = FasterTransformer::paper_default(s.clone()).expect("grid");
        let bounds = exegpt_workload::latency_bounds(&ft.latency_sweep()).expect("non-empty");
        for bound in bounds {
            let _ = ft.plan(bound);
            let _ = Orca::new(s.clone(), IterationLevel::vllm()).expect("grid").plan(bound);
        }
    }
}

/// Baseline replays and ExeGPT replays count work identically: enforced
/// output lengths mean token totals depend only on the sampled stream.
#[test]
fn all_systems_generate_the_same_tokens_for_the_same_stream() {
    let s = sim(Task::Summarization);
    let opts = RunOptions { num_queries: 100, seed: 77, ..Default::default() };
    let expected: u64 = exegpt_workload::RequestStream::new(s.workload(), 77)
        .take(100)
        .map(|r| r.output_len as u64)
        .sum();
    let ft = FasterTransformer::paper_default(s.clone()).expect("grid");
    assert_eq!(ft.run(16, &opts).expect("runs").tokens_generated, expected);
    let orca = Orca::new(s, IterationLevel::orca()).expect("grid");
    assert_eq!(orca.run(32, &opts).expect("runs").tokens_generated, expected);
}
