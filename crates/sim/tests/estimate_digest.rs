//! Bit-for-bit lock on the closed-form estimators.
//!
//! Sweeps RRA `B_E × N_D` under every TP setting the scheduler would
//! search, and WAA `B_E × B_m` for both variants, on two setups (OPT-13B on
//! 4×A40 with task T, T5-11B on 8×A40 with task S). Every estimate's
//! `to_bits()` — and, for infeasible points, the error variant — is folded
//! into one FNV-1a digest pinned below. A second digest folds the full
//! payload of every infeasible point: its `Display` text and, for
//! out-of-memory errors, the exact byte counts. A performance change to
//! the estimators must leave both digests unchanged; only a deliberate
//! change to the cost model may move them, and then with the reason in its
//! commit.

use std::hash::Hasher;
use std::sync::{Arc, OnceLock};

use exegpt_cluster::ClusterSpec;
use exegpt_dist::{FnvHasher, LengthDist};
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_sim::{
    Estimate, RraConfig, ScheduleConfig, SimError, Simulator, TpConfig, WaaConfig, WaaVariant,
    Workload,
};

const B_E: [usize; 15] = [1, 2, 3, 4, 5, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128];
const N_D: [usize; 18] = [1, 2, 3, 4, 5, 6, 8, 11, 16, 23, 32, 45, 64, 91, 128, 181, 256, 320];
const B_M: [usize; 8] = [1, 2, 3, 4, 6, 8, 12, 16];

/// Pinned digest of the whole sweep, and how many of its points are
/// feasible (so a sweep that silently turns infeasible cannot pass).
const DIGEST: u64 = 0xdf63_07e5_99af_e423;
const FEASIBLE: usize = 3346;

/// Pinned digest of the infeasible points' error payloads, and how many
/// there are.
const ERROR_DIGEST: u64 = 0x56a1_9a9d_51d6_8287;
const INFEASIBLE: usize = 2774;

fn sim(
    model: ModelConfig,
    gpus: usize,
    input: (f64, f64, usize),
    output: (f64, f64, usize),
) -> Simulator {
    let cluster = ClusterSpec::a40_cluster().subcluster(gpus).expect("fits");
    let profile = Profiler::new(model.clone(), cluster.clone())
        .run(&ProfileOptions::default())
        .expect("profiling succeeds");
    let workload = Workload::new(
        LengthDist::truncated_normal(input.0, input.1, input.2).expect("valid"),
        LengthDist::truncated_normal(output.0, output.1, output.2).expect("valid"),
    );
    Simulator::new(model, cluster, Arc::new(profile), workload)
}

/// The scheduler's TP settings: none, plus every multiple of each profiled
/// degree up to the cluster size.
fn tp_settings(sim: &Simulator) -> Vec<TpConfig> {
    let n = sim.cluster().total_gpus();
    let mut tps = vec![TpConfig::none()];
    for degree in sim.profile().tp_degrees().into_iter().filter(|&d| d >= 2) {
        tps.extend((degree..=n).step_by(degree).map(|gpus| TpConfig { degree, gpus }));
    }
    tps
}

fn configs(sim: &Simulator) -> Vec<ScheduleConfig> {
    let mut cfgs = Vec::new();
    for tp in tp_settings(sim) {
        for b_e in B_E {
            for n_d in N_D {
                cfgs.push(ScheduleConfig::Rra(RraConfig::new(b_e, n_d, tp)));
            }
            for variant in [WaaVariant::Compute, WaaVariant::Memory] {
                for b_m in B_M {
                    cfgs.push(ScheduleConfig::Waa(WaaConfig::new(b_e, b_m, tp, variant)));
                }
            }
        }
    }
    cfgs
}

/// Folds one result through byte writes only, so the digest is the same on
/// every platform and independent of how the hasher folds integer writes.
fn fold(h: &mut FnvHasher, result: &Result<Estimate, SimError>) {
    let mut word = |v: u64| h.write(&v.to_le_bytes());
    match result {
        Ok(est) => {
            word(est.latency.as_secs().to_bits());
            word(est.throughput.to_bits());
            word(est.breakdown.period.as_secs().to_bits());
            word(est.breakdown.encode_time.as_secs().to_bits());
            word(est.breakdown.decode_time.as_secs().to_bits());
            word(u64::try_from(est.breakdown.decode_batch).expect("fits"));
        }
        Err(e) => {
            let tag = match e {
                SimError::InvalidConfig { what, .. } => format!("invalid:{what}"),
                SimError::OutOfMemory { role, .. } => format!("oom:{role}"),
                SimError::NoSteadyState { .. } => "no-steady-state".to_owned(),
                SimError::Profile(_) => "profile".to_owned(),
                _ => "other".to_owned(),
            };
            h.write(tag.as_bytes());
        }
    }
}

/// Every sweep point's result, in sweep order, computed once for both
/// digests.
fn sweep() -> &'static [Result<Estimate, SimError>] {
    static RESULTS: OnceLock<Vec<Result<Estimate, SimError>>> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let setups = [
            // OPT-13B, 4×A40, task T (translation).
            sim(ModelConfig::opt_13b(), 4, (128.0, 81.0, 256), (128.0, 68.0, 320)),
            // T5-11B, 8×A40, task S (summarization).
            sim(ModelConfig::t5_11b(), 8, (256.0, 252.0, 512), (32.0, 13.0, 80)),
        ];
        setups
            .iter()
            .flat_map(|sim| configs(sim).into_iter().map(|cfg| sim.evaluate(&cfg)))
            .collect()
    })
}

#[test]
fn estimator_sweep_matches_pinned_digest() {
    let mut h = FnvHasher::default();
    let mut feasible = 0;
    for result in sweep() {
        feasible += usize::from(result.is_ok());
        fold(&mut h, result);
    }
    assert_eq!((h.finish(), feasible), (DIGEST, FEASIBLE), "digest {:#018x}", h.finish());
}

#[test]
fn error_payloads_match_pinned_digest() {
    let mut h = FnvHasher::default();
    let mut infeasible = 0;
    for err in sweep().iter().filter_map(|r| r.as_ref().err()) {
        infeasible += 1;
        h.write(err.to_string().as_bytes());
        // `Display` rounds byte counts to 0.1 GiB; fold them exactly.
        if let SimError::OutOfMemory { needed, capacity, .. } = err {
            h.write(&needed.to_le_bytes());
            h.write(&capacity.to_le_bytes());
        }
    }
    assert_eq!(
        (h.finish(), infeasible),
        (ERROR_DIGEST, INFEASIBLE),
        "error digest {:#018x}",
        h.finish()
    );
}
