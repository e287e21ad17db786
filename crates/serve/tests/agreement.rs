//! The offline replay and the serve step run one phase body.
//!
//! OPT-13B on 4×A40, task T: the runner's closed-loop request stream (every
//! query queued at time zero) is replayed by `Runner::run` and served
//! through a non-adaptive, fault-free `ServeLoop`. Both must complete the
//! same queries with the same tokens, makespan and KV peak, and each
//! request's service time (`e2e − queue_wait`, encode start to last token)
//! must equal the runner's latency, in completion order, bit for bit.

use std::sync::Arc;

use exegpt::{Engine, RraConfig, ScheduleConfig, TpConfig, WaaConfig, WaaVariant};
use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_runner::{RunOptions, Runner};
use exegpt_serve::{ServeLoop, ServeOptions, StepOutcome};
use exegpt_workload::{RequestStream, Task, TimedRequest};

const QUERIES: usize = 300;
const SEED: u64 = 11;

#[test]
fn runner_and_serve_agree_on_rra_and_waa_c() {
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
    let runner = Runner::from_simulator(engine.simulator().clone());
    let plans = [
        ScheduleConfig::Rra(RraConfig::new(16, 16, TpConfig::none())),
        ScheduleConfig::Waa(WaaConfig::new(2, 3, TpConfig::none(), WaaVariant::Compute)),
    ];
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
        let completions = session.take_completions();
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
