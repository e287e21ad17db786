//! Property coverage of the evaluation cache: memoized scores must be
//! bit-identical to the latency and throughput of freshly computed
//! estimates, for both schedule families, and infeasible exactly where the
//! estimator errs; estimates computed over warm completion and decode-grid
//! layers must be bit-identical to cold ones.

use std::sync::{Arc, OnceLock};

use exegpt_cluster::ClusterSpec;
use exegpt_dist::LengthDist;
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_sim::{
    Perf, RraConfig, ScheduleConfig, Simulator, TpConfig, WaaConfig, WaaVariant, Workload,
};
use proptest::prelude::*;

/// OPT-13B on four A40s serving task S, profiled once for the whole suite.
fn simulator() -> &'static Simulator {
    static SIM: OnceLock<Simulator> = OnceLock::new();
    SIM.get_or_init(|| {
        let model = ModelConfig::opt_13b();
        let cluster = ClusterSpec::a40_cluster().subcluster(4).expect("fits");
        let profile = Profiler::new(model.clone(), cluster.clone())
            .run(&ProfileOptions::default())
            .expect("profiles");
        let workload = Workload::new(
            LengthDist::truncated_normal(256.0, 252.0, 512).expect("valid"),
            LengthDist::truncated_normal(32.0, 13.0, 80).expect("valid"),
        );
        Simulator::new(model, cluster, Arc::new(profile), workload)
    })
}

fn tp_strategy() -> impl Strategy<Value = TpConfig> {
    prop_oneof![
        Just(TpConfig::none()),
        Just(TpConfig { degree: 2, gpus: 2 }),
        Just(TpConfig { degree: 2, gpus: 4 }),
        Just(TpConfig { degree: 4, gpus: 4 }),
    ]
}

fn config_strategy() -> impl Strategy<Value = ScheduleConfig> {
    let rra = (1usize..=48, 1usize..=64, tp_strategy())
        .prop_map(|(b_e, n_d, tp)| ScheduleConfig::Rra(RraConfig::new(b_e, n_d, tp)));
    let variant = prop_oneof![Just(WaaVariant::Compute), Just(WaaVariant::Memory)];
    let waa = (1usize..=8, 1usize..=4, tp_strategy(), variant)
        .prop_map(|(b_e, b_m, tp, v)| ScheduleConfig::Waa(WaaConfig::new(b_e, b_m, tp, v)));
    prop_oneof![rra, waa]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn memoized_scores_are_bit_identical_to_fresh_estimates(
        cfgs in prop::collection::vec(config_strategy(), 10),
    ) {
        // One simulator accumulates cache entries across the whole case;
        // each configuration is also evaluated on a cache-free twin.
        let warm = simulator().with_workload(simulator().workload().clone());
        for cfg in &cfgs {
            let first = warm.score(cfg);
            let second = warm.score(cfg); // must be served by the memo
            let estimate = warm.evaluate(cfg); // over the warm layers
            let cold = warm.with_workload(warm.workload().clone()).evaluate(cfg);
            prop_assert_eq!(bits(first), bits(second));
            match (estimate, cold) {
                (Ok(a), Ok(c)) => {
                    prop_assert_eq!(bits(first), (a.latency.as_secs().to_bits(), a.throughput.to_bits()));
                    // Byte-level identity, not approximate agreement: the
                    // serializer prints shortest-round-trip floats, so equal
                    // strings mean equal bits.
                    let ja = serde_json::to_string(&a).expect("serializes");
                    prop_assert_eq!(&ja, &serde_json::to_string(&c).expect("serializes"));
                }
                (Err(_), Err(_)) => prop_assert_eq!(bits(first), bits(Perf::INFEASIBLE)),
                (a, c) => prop_assert!(
                    false,
                    "warm layers changed feasibility for {:?}: {:?} / {:?}",
                    cfg, a, c
                ),
            }
        }
        let stats = warm.cache_stats();
        prop_assert!(
            stats.hits >= cfgs.len(),
            "every repeated lookup must hit: {:?}",
            stats
        );
        prop_assert!(stats.misses <= cfgs.len());
        prop_assert_eq!(stats.hits + stats.misses, 2 * cfgs.len(), "evaluate must not count");
    }
}

/// A score's bits, so infinities and signed zeros compare exactly.
fn bits(p: Perf) -> (u64, u64) {
    (p.latency.as_secs().to_bits(), p.throughput.to_bits())
}

#[test]
fn with_cluster_shares_the_cache_without_leaking_across_topologies() {
    let sim = simulator().with_workload(simulator().workload().clone());
    let cfg = ScheduleConfig::Rra(RraConfig::new(16, 16, TpConfig::none()));
    let healthy = sim.score(&cfg);
    assert_ne!(healthy, Perf::INFEASIBLE);
    let warm_misses = sim.cache_stats().misses;

    // Same config on a degraded topology: scores are keyed by cluster
    // fingerprint, so this must re-derive rather than replay the healthy
    // score.
    let degraded = sim.with_cluster(sim.cluster().survivors(1).expect("one node left"));
    let worse = degraded.score(&cfg);
    assert_ne!(healthy, worse, "halving the pipeline must change the score");
    assert!(worse.throughput < healthy.throughput);
    let fresh = degraded.evaluate(&cfg).expect("feasible");
    assert_eq!(bits(worse), (fresh.latency.as_secs().to_bits(), fresh.throughput.to_bits()));

    // The cache is shared (not flushed): the degraded lookup shows up in
    // the same stats, and swapping back to the healthy topology is pure
    // hits — no new misses, bit-identical scores.
    assert!(degraded.cache_stats().misses > warm_misses);
    let recovered = degraded.with_cluster(sim.cluster().clone());
    let before = recovered.cache_stats();
    let replay = recovered.score(&cfg);
    assert_eq!(bits(replay), bits(healthy));
    let after = recovered.cache_stats();
    assert_eq!(after.misses, before.misses, "recovery must be a cache hit");
    assert_eq!(after.hits, before.hits + 1);
}

#[test]
fn with_workload_does_not_leak_cached_scores() {
    let sim = simulator().with_workload(simulator().workload().clone());
    let cfg = ScheduleConfig::Rra(RraConfig::new(16, 16, TpConfig::none()));
    let short = sim.score(&cfg);

    // Same config under a shifted workload: were the cache carried across
    // `with_workload`, the stale score would be returned verbatim.
    let shifted = sim.with_workload(Workload::new(
        LengthDist::truncated_normal(128.0, 81.0, 256).expect("valid"),
        LengthDist::truncated_normal(128.0, 68.0, 320).expect("valid"),
    ));
    let empty = shifted.cache_stats();
    assert_eq!((empty.hits, empty.misses, empty.entries), (0, 0, 0));
    let long = shifted.score(&cfg);
    assert_ne!(short, long, "4x longer outputs must change the score");
    assert!(long.latency > short.latency);
    assert_eq!(shifted.cache_stats().misses, 1);
}
