//! Bit-for-bit lock on the runner's phase timings and the baselines'
//! estimates and replays.
//!
//! Sweeps `PhaseExecutor::{encode_timing, decode_timing, handover_time}`
//! (plus the bottleneck GPU's KV bytes per token) for RRA under every TP
//! setting the scheduler would search and for WAA-C/WAA-M, over pool sizes,
//! input lengths, contexts and the pipeline-fill flag; then the
//! FasterTransformer, DeepSpeed-Inference, ORCA and vLLM `estimate(batch)`
//! batch sweeps. Both setups are those of `exegpt-sim`'s
//! `estimate_digest.rs` (OPT-13B on 4×A40 with task T, T5-11B on 8×A40 with
//! task S). Every result's `to_bits()` — and, for failures, the error
//! variant — is folded into one FNV-1a digest pinned below. A refactor of
//! the stage-cost code must leave the digest unchanged; only a deliberate
//! cost-model change may move it, and then with the reason in its commit.
//!
//! A second digest locks the baselines' replays on the same setups: each
//! system's `run(batch, opts)` at a few batch sizes, closed loop, plus an
//! ORCA replay on stale traffic whose outputs run far longer than planned,
//! so its KV growth clamps. Every `RunReport` field is folded in.

use std::hash::Hasher;
use std::sync::Arc;

use exegpt_baselines::{FasterTransformer, IterationLevel, Orca};
use exegpt_cluster::ClusterSpec;
use exegpt_dist::{FnvHasher, LengthDist};
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_runner::{PhaseExecutor, RunError, RunOptions, RunReport};
use exegpt_sim::{
    Estimate, RraConfig, ScheduleConfig, SimError, Simulator, TpConfig, WaaConfig, WaaVariant,
    Workload,
};

/// RRA `B_E × N_D` and WAA `B_E × B_m` points each executor is built for.
const RRA_B_E: [usize; 4] = [1, 4, 16, 64];
const RRA_N_D: [usize; 3] = [4, 32, 128];
const WAA_B_E: [usize; 3] = [1, 4, 16];
const WAA_B_M: [usize; 3] = [1, 2, 4];
/// Encode phases: queries admitted and their (uniform) input length; one
/// mixed-length phase per pool size is added on top.
const ENC_POOLS: [usize; 8] = [1, 2, 3, 5, 8, 13, 32, 64];
const INPUT_LENS: [usize; 3] = [16, 128, 400];
/// Decode iterations: active queries and mean context.
const ACTIVE: [usize; 8] = [1, 2, 3, 7, 16, 33, 64, 150];
const CONTEXTS: [f64; 3] = [20.0, 140.5, 600.0];
const HANDOVER_TOKENS: [f64; 3] = [0.0, 100.0, 4096.5];
/// Tokens admitted into a fresh KV tracker to read back bytes per token.
const KV_PROBE_TOKENS: usize = 1_000_003;

/// Pinned digest of the whole sweep, and how many of its points succeed
/// (so a sweep that silently turns into errors cannot pass).
const DIGEST: u64 = 0x2dd3_0529_5276_6a4f;
const OK: usize = 17491;

/// Static batch sizes and slot counts each baseline is replayed at.
const REPLAY_BATCHES: [usize; 3] = [4, 16, 48];
const REPLAY_QUERIES: usize = 160;
/// Output-mean factor of the stale traffic, and ORCA's slots and queries
/// on it.
const STALE_FACTOR: f64 = 4.0;
const STALE_SLOTS: usize = 512;
const STALE_QUERIES: usize = 1200;

/// Pinned digest of every baseline replay, and how many of them succeed.
const REPLAY_DIGEST: u64 = 0x557d_fe47_f551_cdde;
const REPLAY_OK: usize = 25;

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

fn schedules(sim: &Simulator) -> Vec<ScheduleConfig> {
    let mut cfgs = Vec::new();
    for tp in tp_settings(sim) {
        for b_e in RRA_B_E {
            for n_d in RRA_N_D {
                cfgs.push(ScheduleConfig::Rra(RraConfig::new(b_e, n_d, tp)));
            }
        }
        for variant in [WaaVariant::Compute, WaaVariant::Memory] {
            for b_e in WAA_B_E {
                for b_m in WAA_B_M {
                    cfgs.push(ScheduleConfig::Waa(WaaConfig::new(b_e, b_m, tp, variant)));
                }
            }
        }
    }
    cfgs
}

/// Byte-only folds, so the digest is the same on every platform and
/// independent of how the hasher folds integer writes.
struct Digest {
    h: FnvHasher,
    ok: usize,
}

impl Digest {
    fn word(&mut self, v: u64) {
        self.h.write(&v.to_le_bytes());
    }

    fn secs(&mut self, s: exegpt_units::Secs) {
        self.word(s.as_secs().to_bits());
    }

    fn tag(&mut self, tag: &str) {
        self.h.write(tag.as_bytes());
    }

    fn sim_error(&mut self, e: &SimError) {
        let tag = match e {
            SimError::InvalidConfig { what, .. } => format!("invalid:{what}"),
            SimError::OutOfMemory { role, .. } => format!("oom:{role}"),
            SimError::NoSteadyState { .. } => "no-steady-state".to_owned(),
            SimError::Profile(_) => "profile".to_owned(),
            _ => "other".to_owned(),
        };
        self.tag(&tag);
    }

    fn run_error(&mut self, e: &RunError) {
        match e {
            RunError::Schedule(e) => self.sim_error(e),
            RunError::Profile(_) => self.tag("run-profile"),
            _ => self.tag("run-other"),
        }
    }

    fn run<T>(&mut self, result: Result<T, RunError>, fold: impl FnOnce(&mut Self, T)) {
        match result {
            Ok(v) => {
                self.ok += 1;
                fold(self, v);
            }
            Err(e) => self.run_error(&e),
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.word(u64::try_from(xs.len()).expect("fits"));
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn report(&mut self, r: &RunReport) {
        self.word(u64::try_from(r.completed).expect("fits"));
        self.word(r.tokens_generated);
        self.secs(r.makespan);
        self.word(r.throughput.to_bits());
        self.f64s(&r.latencies);
        self.f64s(&r.encoder_stage_times);
        self.f64s(&r.decoder_stage_times);
        self.word(r.peak_kv_bytes);
        self.word(r.kv_clamped_tokens);
        self.word(r.param_bytes);
    }

    fn estimate(&mut self, result: Result<Estimate, SimError>) {
        match result {
            Ok(est) => {
                self.ok += 1;
                self.secs(est.latency);
                self.word(est.throughput.to_bits());
                self.secs(est.breakdown.period);
                self.secs(est.breakdown.encode_time);
                self.secs(est.breakdown.decode_time);
                self.word(u64::try_from(est.breakdown.decode_batch).expect("fits"));
                self.word(est.memory.decoder_gpu.param_bytes);
                self.word(est.memory.decoder_gpu.kv_bytes);
            }
            Err(e) => self.sim_error(&e),
        }
    }
}

fn sweep_executor(d: &mut Digest, exec: &PhaseExecutor) {
    let mut kv = exec.kv_tracker();
    kv.admit_unchecked(0, KV_PROBE_TOKENS);
    d.word(kv.used_bytes());
    d.word(kv.capacity_bytes());
    for n in ENC_POOLS {
        for len in INPUT_LENS {
            d.run(exec.encode_timing(&vec![len; n]), |d, enc| {
                d.secs(enc.total);
                d.secs(enc.bottleneck);
                d.word(enc.tokens.to_bits());
            });
        }
        let mixed: Vec<usize> = (0..n).map(|i| 7 + 37 * i % 300).collect();
        d.run(exec.encode_timing(&mixed), |d, enc| {
            d.secs(enc.total);
            d.secs(enc.bottleneck);
            d.word(enc.tokens.to_bits());
        });
    }
    for active in ACTIVE {
        let parallelism = exec.decode_parallelism(active);
        for ctx in CONTEXTS {
            for fill in [false, true] {
                d.run(exec.decode_timing(parallelism, active, ctx, fill), |d, dec| {
                    d.secs(dec.total);
                    d.secs(dec.bottleneck);
                });
            }
        }
    }
    for tokens in HANDOVER_TOKENS {
        d.secs(exec.handover_time(tokens));
    }
}

fn sweep_baselines(d: &mut Digest, sim: &Simulator) {
    let batches: Vec<usize> =
        (1..=8).chain((12..=sim.profile().max_batch() + 4).step_by(4)).collect();
    let ft = FasterTransformer::paper_default(sim.clone()).expect("grid");
    let dsi = FasterTransformer::deepspeed(sim.clone()).expect("single node");
    let orca = Orca::new(sim.clone(), IterationLevel::orca()).expect("grid");
    let vllm = Orca::new(sim.clone(), IterationLevel::vllm()).expect("grid");
    for &b in &batches {
        d.estimate(ft.estimate(b));
        d.estimate(dsi.estimate(b));
        d.estimate(orca.estimate(b));
        d.estimate(vllm.estimate(b));
    }
}

fn replay_baselines(d: &mut Digest, sim: &Simulator) {
    let ft = FasterTransformer::paper_default(sim.clone()).expect("grid");
    let dsi = FasterTransformer::deepspeed(sim.clone()).expect("single node");
    let orca = Orca::new(sim.clone(), IterationLevel::orca()).expect("grid");
    let vllm = Orca::new(sim.clone(), IterationLevel::vllm()).expect("grid");
    for (i, &b) in REPLAY_BATCHES.iter().enumerate() {
        let opts =
            RunOptions { num_queries: REPLAY_QUERIES, seed: 3 + i as u64, ..RunOptions::default() };
        d.run(ft.run(b, &opts), |d, r| d.report(&r));
        d.run(dsi.run(b, &opts), |d, r| d.report(&r));
        d.run(orca.run(b, &opts), |d, r| d.report(&r));
        d.run(vllm.run(b, &opts), |d, r| d.report(&r));
    }
}

/// OPT-13B on 4×A40 with task T, and T5-11B on 8×A40 with task S.
fn setups() -> [Simulator; 2] {
    [
        sim(ModelConfig::opt_13b(), 4, (128.0, 81.0, 256), (128.0, 68.0, 320)),
        sim(ModelConfig::t5_11b(), 8, (256.0, 252.0, 512), (32.0, 13.0, 80)),
    ]
}

#[test]
fn phase_timings_and_baseline_estimates_match_pinned_digest() {
    let setups = setups();
    let mut d = Digest { h: FnvHasher::default(), ok: 0 };
    for sim in &setups {
        for cfg in schedules(sim) {
            d.run(PhaseExecutor::new(sim, &cfg), |d, exec| sweep_executor(d, &exec));
        }
        sweep_baselines(&mut d, sim);
    }
    let digest = d.h.finish();
    assert_eq!((digest, d.ok), (DIGEST, OK), "digest {digest:#018x}, ok {}", d.ok);
}

#[test]
fn baseline_replays_match_pinned_digest() {
    let setups = setups();
    let mut d = Digest { h: FnvHasher::default(), ok: 0 };
    for sim in &setups {
        replay_baselines(&mut d, sim);
    }
    // Stale traffic: outputs run to the planned distribution's maximum, the
    // running batch outgrows the cache and ORCA's KV growth clamps.
    let planned = setups[0].workload();
    let stale = Workload::new(
        planned.input().clone(),
        planned.output().with_scaled_mean(STALE_FACTOR).expect("valid"),
    );
    let orca = Orca::new(setups[0].clone(), IterationLevel::orca()).expect("grid");
    let opts = RunOptions {
        num_queries: STALE_QUERIES,
        seed: 5,
        request_workload: Some(stale),
        ..RunOptions::default()
    };
    let report = orca.run(STALE_SLOTS, &opts).expect("stale traffic runs");
    assert!(report.kv_clamped_tokens > 0, "ORCA must clamp KV growth");
    d.run(Ok(report), |d, r| d.report(&r));
    let digest = d.h.finish();
    assert_eq!((digest, d.ok), (REPLAY_DIGEST, REPLAY_OK), "digest {digest:#018x}, ok {}", d.ok);
}
