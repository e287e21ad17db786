//! Bit-for-bit lock on the serving loop's KV peak.
//!
//! OPT-13B on 4×A40 serves translation traffic under a fixed RRA plan and a
//! fixed WAA-M plan, non-adaptive, once on the planned traffic and once on
//! stale traffic whose outputs run to the distribution's maximum (the KV
//! cache saturates and growth clamps). Each run's `kv_peak_bytes` gauge,
//! completion and token counts and event log are folded into one FNV-1a
//! digest pinned below; the event log also fixes the completion order.

use std::hash::Hasher;
use std::sync::Arc;

use exegpt::{Engine, RraConfig, ScheduleConfig, TpConfig, WaaConfig, WaaVariant};
use exegpt_cluster::ClusterSpec;
use exegpt_dist::FnvHasher;
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_serve::{ServeLoop, ServeOptions};
use exegpt_sim::Workload;
use exegpt_workload::{PoissonStream, Task};

/// Pinned digest of the four runs.
const DIGEST: u64 = 0x75ae_134c_abc5_a4bc;

const REQUESTS: usize = 1200;
const RATE: f64 = 40.0;
const SEED: u64 = 3;

#[test]
fn serve_kv_peaks_match_pinned_digest() {
    let model = ModelConfig::opt_13b();
    let cluster = ClusterSpec::a40_cluster().subcluster(4).expect("fits");
    let profile = Profiler::new(model.clone(), cluster.clone())
        .run(&ProfileOptions::default())
        .expect("profiles");
    let planned = Task::Translation.workload().expect("valid");
    let stale = Workload::new(
        planned.input().clone(),
        planned.output().with_scaled_mean(4.0).expect("valid"),
    );
    let engine = Engine::builder()
        .model(model)
        .cluster(cluster)
        .workload(planned.clone())
        .profile(Arc::new(profile))
        .build()
        .expect("builds");
    let plans = [
        ScheduleConfig::Rra(RraConfig::new(32, 8, TpConfig::none())),
        ScheduleConfig::Waa(WaaConfig::new(2, 3, TpConfig::none(), WaaVariant::Memory)),
    ];
    let mut h = FnvHasher::default();
    for plan in &plans {
        for traffic in [&planned, &stale] {
            let arrivals = PoissonStream::new(traffic, RATE, SEED).take(REQUESTS);
            let opts = ServeOptions { adaptive: false, ..ServeOptions::default() };
            let report = ServeLoop::new(engine.clone(), plan, opts)
                .expect("feasible")
                .run(arrivals)
                .expect("serves");
            let peak = report.metrics.gauges.get("kv_peak_bytes").copied().expect("gauge set");
            h.write(&peak.to_bits().to_le_bytes());
            h.write(&u64::try_from(report.completed).expect("fits").to_le_bytes());
            h.write(&report.tokens_generated.to_le_bytes());
            h.write(report.events.to_jsonl().as_bytes());
        }
    }
    let digest = h.finish();
    assert_eq!(digest, DIGEST, "digest {digest:#018x}");
}
