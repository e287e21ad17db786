//! Bit-for-bit lock on the replays' reports.
//!
//! Replays RRA (without and with tensor parallelism), WAA-C and WAA-M plans
//! on the two setups of `exegpt-sim`'s `estimate_digest.rs` (OPT-13B on
//! 4×A40 with task T, T5-11B on 8×A40 with task S), closed loop (every
//! query queued at time zero), plus stale plans whose traffic generates far
//! longer outputs than planned, so the KV cache saturates and growth
//! clamps. Every `RunReport` field is folded into one FNV-1a digest pinned
//! below: the counts, the makespan and throughput, `latencies` in
//! completion order, both stage-time vectors and the peak KV bytes. Every
//! other replay of the sweep runs through `Runner::run_observed`, and the
//! non-empty spans of its phase records (GPU group, kind, start, end,
//! queries) are folded after its report. A refactor of the replay loops
//! must leave the digest unchanged. The clamped-token count stays out of the digest; the stale
//! plans assert it is nonzero, so the exact per-entry KV path runs.
//! Open-loop (Poisson) traffic is served by `exegpt-serve`, whose
//! `kv_peak.rs` and `agreement.rs` cover it.

use std::hash::Hasher;
use std::sync::Arc;

use exegpt_cluster::ClusterSpec;
use exegpt_dist::{FnvHasher, LengthDist};
use exegpt_model::ModelConfig;
use exegpt_profiler::{ProfileOptions, Profiler};
use exegpt_runner::{PhaseRecord, RunError, RunOptions, RunReport, Runner};
use exegpt_sim::{RraConfig, ScheduleConfig, TpConfig, WaaConfig, WaaVariant, Workload};

/// Pinned digest of every closed-loop replay, and how many of them succeed
/// (so a sweep that silently turns into errors cannot pass).
const DIGEST: u64 = 0x4b7e_da2a_c09d_3ce0;
const OK: usize = 10;

/// Queries per replay of the sweep.
const QUERIES: usize = 400;
/// Output-mean factor of the stale plans' traffic, and their queries.
const STALE_FACTOR: f64 = 4.0;
const STALE_QUERIES: usize = 1500;

fn runner(
    model: ModelConfig,
    gpus: usize,
    input: (f64, f64, usize),
    output: (f64, f64, usize),
) -> Runner {
    let cluster = ClusterSpec::a40_cluster().subcluster(gpus).expect("fits");
    let profile = Profiler::new(model.clone(), cluster.clone())
        .run(&ProfileOptions::default())
        .expect("profiling succeeds");
    let workload = Workload::new(
        LengthDist::truncated_normal(input.0, input.1, input.2).expect("valid"),
        LengthDist::truncated_normal(output.0, output.1, output.2).expect("valid"),
    );
    Runner::new(model, cluster, Arc::new(profile), workload)
}

/// RRA without and with tensor parallelism, WAA-C and WAA-M.
fn schedules(gpus: usize) -> [ScheduleConfig; 4] {
    [
        ScheduleConfig::Rra(RraConfig::new(16, 16, TpConfig::none())),
        ScheduleConfig::Rra(RraConfig::new(32, 8, TpConfig { degree: 2, gpus })),
        ScheduleConfig::Waa(WaaConfig::new(2, 2, TpConfig::none(), WaaVariant::Compute)),
        ScheduleConfig::Waa(WaaConfig::new(2, 3, TpConfig::none(), WaaVariant::Memory)),
    ]
}

/// Plans whose KV cache saturates on the first setup's stale traffic.
fn saturating() -> [ScheduleConfig; 2] {
    [
        ScheduleConfig::Rra(RraConfig::new(32, 8, TpConfig::none())),
        ScheduleConfig::Waa(WaaConfig::new(2, 3, TpConfig::none(), WaaVariant::Memory)),
    ]
}

/// Byte-only folds, so the digest is the same on every platform.
struct Digest {
    h: FnvHasher,
    ok: usize,
}

impl Digest {
    fn word(&mut self, v: u64) {
        self.h.write(&v.to_le_bytes());
    }

    fn len(&mut self, n: usize) {
        self.word(u64::try_from(n).expect("fits"));
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.len(xs.len());
        for x in xs {
            self.word(x.to_bits());
        }
    }

    /// Folds a report, then the spans of `spans` when the replay was
    /// observed.
    fn report(&mut self, result: Result<RunReport, RunError>, spans: Option<&[Span]>) {
        let r = match result {
            Ok(r) => r,
            Err(e) => {
                self.h.write(format!("error:{e}").as_bytes());
                return;
            }
        };
        self.ok += 1;
        self.len(r.completed);
        self.word(r.tokens_generated);
        self.word(r.makespan.as_secs().to_bits());
        self.word(r.throughput.to_bits());
        self.f64s(&r.latencies);
        self.f64s(&r.encoder_stage_times);
        self.f64s(&r.decoder_stage_times);
        self.word(r.peak_kv_bytes);
        self.word(r.param_bytes);
        if let Some(spans) = spans {
            self.len(spans.len());
            for &(group, kind, t0, t1, batch) in spans {
                self.h.write(group.as_bytes());
                self.word(kind);
                self.word(t0.to_bits());
                self.word(t1.to_bits());
                self.len(batch);
            }
        }
    }
}

/// One non-empty span of an observed phase: its GPU group, its kind
/// (0 encode, 1 decode, 2 KV handover), start, end and queries.
type Span = (&'static str, u64, f64, f64, usize);

/// A phase's spans: RRA phases on the shared workers, WAA rounds on the
/// encoder and decoder groups and the handover between them.
fn push_spans(spans: &mut Vec<Span>, r: &PhaseRecord) {
    let (enc, dec) = if r.coupled { ("encoders", "decoders") } else { ("workers", "workers") };
    for (group, kind, [t0, t1], batch) in [
        (enc, 0, r.encode, r.admitted),
        (dec, 1, r.decode, r.pool),
        ("handover", 2, r.handover, r.admitted),
    ] {
        if t1 > t0 {
            spans.push((group, kind, t0, t1, batch));
        }
    }
}

#[test]
fn replay_reports_match_pinned_digest() {
    let setups = [
        // OPT-13B, 4×A40, task T (translation).
        (runner(ModelConfig::opt_13b(), 4, (128.0, 81.0, 256), (128.0, 68.0, 320)), 4),
        // T5-11B, 8×A40, task S (summarization).
        (runner(ModelConfig::t5_11b(), 8, (256.0, 252.0, 512), (32.0, 13.0, 80)), 8),
    ];
    let mut d = Digest { h: FnvHasher::default(), ok: 0 };
    for (runner, gpus) in &setups {
        for (i, cfg) in schedules(*gpus).iter().enumerate() {
            let opts =
                RunOptions { num_queries: QUERIES, seed: 11 + i as u64, ..RunOptions::default() };
            if i.is_multiple_of(2) {
                let mut spans = Vec::new();
                let report = runner.run_observed(cfg, &opts, |r| push_spans(&mut spans, r));
                d.report(report, Some(&spans));
            } else {
                d.report(runner.run(cfg, &opts), None);
            }
        }
    }
    // Stale plans: the traffic's outputs run to the planned distribution's
    // maximum, the pool outgrows the cache and growth clamps.
    let runner = &setups[0].0;
    let planned = runner.simulator().workload();
    let stale = Workload::new(
        planned.input().clone(),
        planned.output().with_scaled_mean(STALE_FACTOR).expect("valid"),
    );
    for cfg in saturating() {
        let opts = RunOptions {
            num_queries: STALE_QUERIES,
            seed: 5,
            request_workload: Some(stale.clone()),
            ..RunOptions::default()
        };
        let report = runner.run(&cfg, &opts).expect("stale plan runs");
        // Kept out of the digest: the parent code did not count every clamp.
        assert!(report.kv_clamped_tokens > 0, "{cfg:?} must clamp KV growth");
        d.report(Ok(report), None);
    }
    let digest = d.h.finish();
    assert_eq!((digest, d.ok), (DIGEST, OK), "digest {digest:#018x}, ok {}", d.ok);
}
