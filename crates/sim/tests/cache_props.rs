//! Property coverage of the evaluation cache: scores are bit-identical to
//! the latency and throughput of freshly computed estimates, for both
//! schedule families, and infeasible exactly where the estimator errs;
//! estimates over warm completion and decode-grid layers are bit-identical
//! to cold ones; a `Scorer` reused across any sequence of configurations
//! returns what a fresh one returns for each, errors included; and a
//! remembered search returns what the search returned when it ran,
//! infeasible outcomes and counters included, for the cluster and workload
//! it ran on only.

use std::sync::{Arc, OnceLock};

use exegpt_cluster::ClusterSpec;
use exegpt_dist::LengthDist;
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_sim::{
    Estimate, Perf, RraConfig, ScheduleConfig, SearchOutcome, SimError, Simulator, TpConfig,
    WaaConfig, WaaVariant, Workload,
};
use exegpt_units::Secs;
use proptest::prelude::*;

/// `model` on `gpus` A40s serving task S.
fn setup(model: ModelConfig, gpus: usize) -> Simulator {
    let cluster = ClusterSpec::a40_cluster().subcluster(gpus).expect("fits");
    let profile = Profiler::new(model.clone(), cluster.clone())
        .run(&ProfileOptions::default())
        .expect("profiles");
    let workload = Workload::new(
        LengthDist::truncated_normal(256.0, 252.0, 512).expect("valid"),
        LengthDist::truncated_normal(32.0, 13.0, 80).expect("valid"),
    );
    Simulator::new(model, cluster, Arc::new(profile), workload)
}

/// OPT-13B on four A40s serving task S, profiled once for the whole suite.
fn simulator() -> &'static Simulator {
    static SIM: OnceLock<Simulator> = OnceLock::new();
    SIM.get_or_init(|| setup(ModelConfig::opt_13b(), 4))
}

/// OPT-13B on eight A40s: unlike four, its TP settings lay out pipelines
/// of one stage count with different layer allocations (TP 2×6 and 4×4
/// both give five stages), which a stale plan buffer would show.
fn opt_on_eight() -> &'static Simulator {
    static SIM: OnceLock<Simulator> = OnceLock::new();
    SIM.get_or_init(|| setup(ModelConfig::opt_13b(), 8))
}

/// T5-11B, an encoder–decoder model, on eight A40s serving task S.
fn t5_simulator() -> &'static Simulator {
    static SIM: OnceLock<Simulator> = OnceLock::new();
    SIM.get_or_init(|| setup(ModelConfig::t5_11b(), 8))
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
    fn scores_and_warm_estimates_are_bit_identical_to_cold_ones(
        cfgs in prop::collection::vec(config_strategy(), 10),
    ) {
        // One simulator accumulates cache entries across the whole case;
        // each configuration is also evaluated on a cache-free twin.
        let warm = fresh();
        for cfg in &cfgs {
            let score = warm.score(cfg);
            let estimate = warm.evaluate(cfg); // over the warm layers
            let cold = fresh().evaluate(cfg);
            match (estimate, cold) {
                (Ok(a), Ok(c)) => {
                    prop_assert_eq!(bits(score), (a.latency.as_secs().to_bits(), a.throughput.to_bits()));
                    // Byte-level identity, not approximate agreement: the
                    // serializer prints shortest-round-trip floats, so equal
                    // strings mean equal bits.
                    let ja = serde_json::to_string(&a).expect("serializes");
                    prop_assert_eq!(&ja, &serde_json::to_string(&c).expect("serializes"));
                }
                (Err(_), Err(_)) => prop_assert_eq!(bits(score), bits(Perf::INFEASIBLE)),
                (a, c) => prop_assert!(
                    false,
                    "warm layers changed feasibility for {:?}: {:?} / {:?}",
                    cfg, a, c
                ),
            }
        }
        let stats = warm.cache_stats();
        prop_assert_eq!((stats.hits, stats.misses), (0, 0), "scores must not count");
    }

    #[test]
    fn a_remembered_search_equals_the_cold_one(
        cfgs in prop::collection::vec(config_strategy(), 1..12),
        bound in prop_oneof![Just(1e-6), 1.0f64..40.0, Just(f64::INFINITY)],
    ) {
        let sim = fresh();
        let key = options(bound, &cfgs);
        let (cold, hit) = sim.remembered_search(key.clone(), || best_of(&sim, &cfgs, bound));
        prop_assert!(!hit);
        let (again, hit) =
            sim.remembered_search(key.clone(), || panic!("a remembered search must not run"));
        prop_assert!(hit);
        prop_assert_eq!(fingerprint(&again), fingerprint(&cold));
        // The remembered outcome is the search's own, not a stale one.
        prop_assert_eq!(fingerprint(&cold), fingerprint(&best_of(&fresh(), &cfgs, bound)));
        if bound == 1e-6 {
            prop_assert!(cold.best.is_none(), "1 µs is infeasible");
        }
        let stats = sim.cache_stats();
        prop_assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}

/// Every TP setting the scheduler searches on `sim` (none, and each
/// multiple of each profiled degree up to the cluster size), and three it
/// rejects: a degree that does not divide its GPUs, more GPUs than the
/// cluster has, and an unprofiled degree.
fn every_tp_setting(sim: &Simulator) -> Vec<TpConfig> {
    let n = sim.cluster().total_gpus();
    let mut tps = vec![TpConfig::none()];
    for degree in sim.profile().tp_degrees().into_iter().filter(|&d| d >= 2) {
        tps.extend((degree..=n).step_by(degree).map(|gpus| TpConfig { degree, gpus }));
    }
    tps.extend([
        TpConfig { degree: 2, gpus: 3 },
        TpConfig { degree: 2, gpus: 2 * n },
        TpConfig { degree: 3, gpus: 3 },
    ]);
    tps
}

/// RRA, WAA-C and WAA-M configurations at every TP setting of `sim`, over
/// ranges that reach zero-sized (invalid) and oversized (out of memory or
/// past the profiled batch) points. No configuration has no steady state:
/// every query completes in some phase, so an RRA phase completes at least
/// a `1 / max_len²` fraction of its pool, and a pool too large for that
/// fails as past the profiled batch first.
fn any_config(sim: &Simulator) -> impl Strategy<Value = ScheduleConfig> {
    let tps = every_tp_setting(sim);
    let tp = (0..tps.len()).prop_map(move |i| tps[i]);
    let rra = (0usize..=160, 0usize..=96, tp.clone())
        .prop_map(|(b_e, n_d, tp)| ScheduleConfig::Rra(RraConfig::new(b_e, n_d, tp)));
    let variant = prop_oneof![Just(WaaVariant::Compute), Just(WaaVariant::Memory)];
    let waa = (0usize..=48, 0usize..=20, tp, variant)
        .prop_map(|(b_e, b_m, tp, v)| ScheduleConfig::Waa(WaaConfig::new(b_e, b_m, tp, v)));
    prop_oneof![rra, waa]
}

/// What one configuration evaluated to, as `Scorer` reuse must keep it: an
/// estimate's serialized text (equal text means equal bits) with its
/// latency and throughput bits, or the error with its `Display` text.
#[derive(Debug, PartialEq)]
enum Outcome {
    Estimate(String, (u64, u64)),
    Error(SimError, String),
}

impl Outcome {
    fn of(result: Result<Estimate, SimError>) -> Self {
        match result {
            Ok(est) => Outcome::Estimate(
                serde_json::to_string(&est).expect("serializes"),
                (est.latency.as_secs().to_bits(), est.throughput.to_bits()),
            ),
            Err(e) => {
                let text = e.to_string();
                Outcome::Error(e, text)
            }
        }
    }
}

/// Evaluates `cfgs` in order through one scorer of a cache-free twin of
/// `sim`, and each also through a fresh `Simulator::evaluate` on `sim`;
/// returns the first configuration where they differ, and otherwise every
/// outcome's kind.
fn reuse_mismatch(sim: &Simulator, cfgs: &[ScheduleConfig]) -> Result<Vec<&'static str>, String> {
    let twin = sim.with_workload(sim.workload().clone());
    let mut scorer = twin.scorer();
    let mut kinds = Vec::new();
    for (i, cfg) in cfgs.iter().enumerate() {
        let got = Outcome::of(scorer.evaluate(cfg));
        let want = Outcome::of(sim.evaluate(cfg));
        if got != want {
            return Err(format!("config {i} {cfg:?}: reused {got:?}, fresh {want:?}"));
        }
        kinds.push(match want {
            Outcome::Estimate(..) => "ok",
            Outcome::Error(SimError::InvalidConfig { .. }, _) => "invalid",
            Outcome::Error(SimError::OutOfMemory { .. }, _) => "oom",
            Outcome::Error(SimError::Profile(_), _) => "profile",
            Outcome::Error(..) => "other",
        });
    }
    Ok(kinds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn a_reused_scorer_leaks_no_state_on_a_decoder_only_model(
        cfgs in prop::collection::vec(any_config(simulator()), 1..=64),
        wide in prop::collection::vec(any_config(opt_on_eight()), 1..=64),
    ) {
        prop_assert_eq!(reuse_mismatch(simulator(), &cfgs).err(), None);
        prop_assert_eq!(reuse_mismatch(opt_on_eight(), &wide).err(), None);
    }

    #[test]
    fn a_reused_scorer_leaks_no_state_on_an_encoder_decoder_model(
        cfgs in prop::collection::vec(any_config(t5_simulator()), 1..=64),
    ) {
        prop_assert_eq!(reuse_mismatch(t5_simulator(), &cfgs).err(), None);
    }
}

#[test]
fn the_reuse_strategy_reaches_every_outcome() {
    // A fixed draw from each fixture's strategy, so the properties above
    // are known to cover feasible, invalid, out-of-memory and unprofiled
    // points.
    for sim in [simulator(), opt_on_eight(), t5_simulator()] {
        let name = format!("{} on {}", sim.model().name(), sim.cluster().total_gpus());
        let mut rng = proptest::test_rng(&name);
        let cfgs = prop::collection::vec(any_config(sim), 400).generate(&mut rng);
        let kinds = reuse_mismatch(sim, &cfgs).expect("a reused scorer matches fresh ones");
        for kind in ["ok", "invalid", "oom", "profile"] {
            assert!(kinds.contains(&kind), "{name} draws no {kind} point");
        }
    }
}

/// A fresh simulator for the shared setup: its cache starts empty.
fn fresh() -> Simulator {
    simulator().with_workload(simulator().workload().clone())
}

/// A score's bits, so infinities and signed zeros compare exactly.
fn bits(p: Perf) -> (u64, u64) {
    (p.latency.as_secs().to_bits(), p.throughput.to_bits())
}

/// A small search for the memo to remember: the highest-throughput
/// configuration of `cfgs` within `bound`, scored one by one, with its
/// estimate. Infeasible points count as certified, feasible ones as full.
fn best_of(sim: &Simulator, cfgs: &[ScheduleConfig], bound: f64) -> SearchOutcome {
    let (mut best, mut infeasible) = (None::<(ScheduleConfig, f64)>, 0);
    for cfg in cfgs {
        let p = sim.score(cfg);
        if p.satisfies(Secs::new(bound)) && p.throughput.is_finite() {
            if best.is_none_or(|(_, t)| p.throughput > t) {
                best = Some((*cfg, p.throughput));
            }
        } else {
            infeasible += 1;
        }
    }
    let best = best.map(|(cfg, _)| (cfg, sim.evaluate(&cfg).expect("scored feasible")));
    SearchOutcome {
        best,
        evals: cfgs.len(),
        certified: infeasible,
        exact: 0,
        full: cfgs.len() - infeasible,
    }
}

/// The search options as memo words: the bound's bits, then the
/// configurations' debug text, length-prefixed.
fn options(bound: f64, cfgs: &[ScheduleConfig]) -> Vec<u64> {
    let text = format!("{cfgs:?}");
    let mut key = vec![bound.to_bits(), text.len() as u64];
    key.extend(text.bytes().map(u64::from));
    key
}

/// An outcome with its estimate as serialized text, so equal fingerprints
/// mean equal bits.
fn fingerprint(o: &SearchOutcome) -> String {
    let best = o
        .best
        .as_ref()
        .map(|(cfg, est)| format!("{cfg:?} {}", serde_json::to_string(est).expect("serializes")));
    format!("{best:?} {} {} {} {}", o.evals, o.certified, o.exact, o.full)
}

#[test]
fn with_cluster_shares_the_cache_without_leaking_across_topologies() {
    let sim = fresh();
    let cfgs: Vec<ScheduleConfig> = [4, 16, 32]
        .map(|b_e| ScheduleConfig::Rra(RraConfig::new(b_e, 16, TpConfig::none())))
        .to_vec();
    let key = options(f64::INFINITY, &cfgs);
    let (healthy, _) = sim.remembered_search(key.clone(), || best_of(&sim, &cfgs, f64::INFINITY));
    let healthy_throughput = healthy.best.as_ref().expect("feasible").1.throughput;

    // The same search on a degraded topology: searches are keyed by
    // cluster fingerprint, so this must run rather than replay the healthy
    // outcome.
    let degraded = sim.with_cluster(sim.cluster().survivors(1).expect("one node left"));
    let (worse, hit) =
        degraded.remembered_search(key.clone(), || best_of(&degraded, &cfgs, f64::INFINITY));
    assert!(!hit, "a fault topology must search again");
    let worse_throughput = worse.best.as_ref().expect("feasible").1.throughput;
    assert!(worse_throughput < healthy_throughput, "halving the pipeline must cost throughput");
    assert_eq!(
        fingerprint(&worse),
        fingerprint(&best_of(&fresh_on(&degraded), &cfgs, f64::INFINITY))
    );

    // The cache is shared (not flushed): the degraded search shows up in
    // the same stats, and swapping back to the healthy topology is one hit
    // with the healthy outcome, bit for bit.
    assert_eq!(sim.cache_stats().misses, 2);
    let recovered = degraded.with_cluster(sim.cluster().clone());
    let (replay, hit) =
        recovered.remembered_search(key.clone(), || panic!("recovery must be a hit"));
    assert!(hit);
    assert_eq!(fingerprint(&replay), fingerprint(&healthy));
    let stats = recovered.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 2));
}

/// A fresh simulator on `sim`'s cluster.
fn fresh_on(sim: &Simulator) -> Simulator {
    sim.with_workload(sim.workload().clone())
}

#[test]
fn with_workload_starts_with_an_empty_cache() {
    let sim = fresh();
    let cfgs = vec![ScheduleConfig::Rra(RraConfig::new(16, 16, TpConfig::none()))];
    let key = options(f64::INFINITY, &cfgs);
    let (short, _) = sim.remembered_search(key.clone(), || best_of(&sim, &cfgs, f64::INFINITY));

    // The same search under a shifted workload: were the cache carried
    // across `with_workload`, the stale outcome would be returned verbatim.
    let shifted = sim.with_workload(Workload::new(
        LengthDist::truncated_normal(128.0, 81.0, 256).expect("valid"),
        LengthDist::truncated_normal(128.0, 68.0, 320).expect("valid"),
    ));
    let empty = shifted.cache_stats();
    assert_eq!((empty.hits, empty.misses, empty.entries), (0, 0, 0));
    let (long, hit) =
        shifted.remembered_search(key.clone(), || best_of(&shifted, &cfgs, f64::INFINITY));
    assert!(!hit);
    let latency = |o: &SearchOutcome| o.best.as_ref().expect("feasible").1.latency;
    assert!(latency(&long) > latency(&short), "4x longer outputs must cost latency");
    assert_eq!(shifted.cache_stats().misses, 1);
}
