//! The offline replay and the serve step run one phase body.
//!
//! OPT-13B on 4×A40, task T: the runner's closed-loop request stream (every
//! query queued at time zero) is replayed by `Runner::run` and served
//! through a non-adaptive, fault-free `ServeLoop`. Both must complete the
//! same queries with the same tokens, makespan and KV peak, and each
//! request's service time (`e2e − queue_wait`, encode start to last token)
//! must equal the runner's latency, in completion order, bit for bit.
//!
//! The same plans also serve open-loop Poisson traffic well under their
//! capacity, which the replay does not model: every request completes, the
//! completion rate follows the arrival rate, and end-to-end latency
//! includes the queueing before encode.

use std::sync::Arc;

use exegpt::{Engine, RraConfig, ScheduleConfig, TpConfig, WaaConfig, WaaVariant, Workload};
use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_runner::{RunOptions, Runner};
use exegpt_serve::{ServeLoop, ServeOptions, StepOutcome};
use exegpt_workload::{PoissonStream, RequestStream, Task, TimedRequest};

const QUERIES: usize = 300;
const SEED: u64 = 11;
/// Open-loop arrival rate (queries/second), well under either plan's
/// capacity.
const RATE: f64 = 4.0;

/// The engine and workload of OPT-13B on 4×A40 with task T, and the RRA and
/// WAA-C plans both tests run.
fn setup() -> (Engine, Workload, [ScheduleConfig; 2]) {
    let model = ModelConfig::opt_13b();
    let cluster = ClusterSpec::a40_cluster().subcluster(4).expect("fits");
    let profile = Profiler::new(model.clone(), cluster.clone())
        .run(&ProfileOptions::default())
        .expect("profiles");
    let workload = Task::Translation.workload().expect("valid");
    let engine = Engine::builder()
        .model(model)
        .cluster(cluster)
        .workload(workload.clone())
        .profile(Arc::new(profile))
        .build()
        .expect("builds");
    let plans = [
        ScheduleConfig::Rra(RraConfig::new(16, 16, TpConfig::none())),
        ScheduleConfig::Waa(WaaConfig::new(2, 3, TpConfig::none(), WaaVariant::Compute)),
    ];
    (engine, workload, plans)
}

#[test]
fn runner_and_serve_agree_on_rra_and_waa_c() {
    let (engine, workload, plans) = setup();
    let runner = Runner::from_simulator(engine.simulator().clone());
    for plan in &plans {
        let name = plan.describe();
        let opts = RunOptions { num_queries: QUERIES, seed: SEED, ..RunOptions::default() };
        let replay = runner.run(plan, &opts).expect("replays");

        let serve_opts = ServeOptions { adaptive: false, ..ServeOptions::default() };
        let mut session = ServeLoop::new(engine.clone(), plan, serve_opts)
            .expect("feasible")
            .into_replica()
            .expect("no faults");
        for request in RequestStream::new(&workload, SEED).take(QUERIES) {
            session.inject(TimedRequest { request, arrival: 0.0 });
        }
        while let StepOutcome::Progressed = session.step().expect("serves") {}
        let mut completions = Vec::new();
        session.drain_completions(&mut completions);
        let served = session.finish();

        assert_eq!(replay.completed, QUERIES, "{name}: the replay completes");
        assert_eq!(served.completed, replay.completed, "{name}: completed");
        assert_eq!(served.tokens_generated, replay.tokens_generated, "{name}: tokens");
        assert_eq!(
            served.makespan.to_bits(),
            replay.makespan.as_secs().to_bits(),
            "{name}: makespan"
        );
        let peak = served.metrics.gauges.get("kv_peak_bytes").copied().expect("gauge set");
        assert_eq!(peak.to_bits(), (replay.peak_kv_bytes as f64).to_bits(), "{name}: KV peak");
        let service: Vec<u64> =
            completions.iter().map(|c| (c.e2e - c.queue_wait).to_bits()).collect();
        let latencies: Vec<u64> = replay.latencies.iter().map(|l| l.to_bits()).collect();
        assert_eq!(service, latencies, "{name}: per-request latencies in completion order");
    }
}

#[test]
fn underloaded_poisson_traffic_completes_as_fast_as_it_arrives() {
    let (engine, workload, plans) = setup();
    for plan in &plans {
        let name = plan.describe();
        let serve_opts = ServeOptions { adaptive: false, ..ServeOptions::default() };
        let arrivals = PoissonStream::new(&workload, RATE, SEED).take(QUERIES);
        let served = ServeLoop::new(engine.clone(), plan, serve_opts)
            .expect("feasible")
            .run(arrivals)
            .expect("serves");
        assert_eq!(served.completed, QUERIES, "{name}: completed");
        // Underloaded: the completion rate tracks the arrival rate, not
        // the plan's capacity.
        assert!(
            (2.5..5.0).contains(&served.throughput),
            "{name}: underloaded throughput should be ~{RATE} q/s, got {}",
            served.throughput
        );
        let e2e = served.e2e.expect("completions");
        let wait = served.queue_wait.expect("completions");
        // End-to-end latency (arrival to last token) includes the queueing.
        assert!(e2e.mean >= wait.mean, "{name}: e2e {} < queue wait {}", e2e.mean, wait.mean);
        assert!(e2e.p99 > 0.0 && e2e.p99.is_finite(), "{name}: p99 e2e {}", e2e.p99);
    }
}
