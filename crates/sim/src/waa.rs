//! Closed-form timeline of the WAA (Workload-Aware Allocation) schedule
//! (paper §4.1 Figures 3 and 4b–d, §6 "Simulating WAA Schedule").
//!
//! GPUs are partitioned into an *encoding group* and a *decoding group*
//! that run asynchronously as two coupled pipelines. One encoder batch
//! `B_E` is handed over (with its KV cache, via CPU staging) per decoding
//! iteration, and joins the decode pool of `B_D = B_E · S_D` queries. The
//! group split is sized by computation time (WAA-C) or by memory (WAA-M).

use exegpt_dist::convert::{
    ceil_usize, lossless_f64, round_usize, trunc_u64, trunc_usize, widen_u64,
};
use exegpt_model::{MemoryFootprint, ModelKind};

use crate::config::{TpConfig, WaaConfig, WaaVariant};
use crate::error::SimError;
use crate::estimate::{Breakdown, Estimate, MemoryReport};
use crate::layout::{LayerTimes, Pass, PipelineLayout, StageTimes};
use crate::simulator::Simulator;

/// Fraction of the KV handover that cannot be hidden behind compute
/// (the paper overlaps the staged copies with computation, §3).
pub const KV_TRANSFER_EXPOSED: f64 = 0.3;

/// Distinct `(tp, layers)` decode stages whose footprint the memory report
/// keeps: two runs of stages, each with at most two allocations. Stages
/// beyond it are computed directly.
const MEMORY_CLASSES: usize = 4;

/// Latency margin for the runtime's dynamic workload adjustment buffers
/// (paper §5.2, §6 "including buffer time for dynamic adjustments").
const ADJUSTMENT_BUFFER: f64 = 1.05;

/// The resolved structure of a WAA schedule: the encode/decode GPU split,
/// both pipelines' layouts and layer allocations, and the decode pool size.
#[derive(Debug, Clone, PartialEq)]
pub struct WaaPlan {
    /// GPUs dedicated to encoding.
    pub n_enc: usize,
    /// Encoding pipeline layout (single-GPU stages).
    pub enc_layout: PipelineLayout,
    /// Layers per encoding stage.
    pub enc_alloc: Vec<usize>,
    /// Decoding pipeline layout (partial TP applied).
    pub dec_layout: PipelineLayout,
    /// Layers per decoding stage.
    pub dec_alloc: Vec<usize>,
    /// Steady-state decode pool size `B_D = B_E · S_D`.
    pub b_d: usize,
    /// Layers whose KV entries cross the encode→decode handover.
    pub kv_layers: usize,
}

impl WaaPlan {
    /// A plan of no stages, for [`plan_into`] to fill.
    fn empty() -> Self {
        Self {
            n_enc: 0,
            enc_layout: PipelineLayout::empty(),
            enc_alloc: Vec::new(),
            dec_layout: PipelineLayout::empty(),
            dec_alloc: Vec::new(),
            b_d: 0,
            kv_layers: 0,
        }
    }
}

/// What WAA estimates keep across the evaluations of one
/// [`Scorer`](crate::Scorer): the plan of the last group and layer split,
/// rebuilt in place when the split changes.
#[derive(Debug)]
pub(crate) struct WaaState {
    plan: WaaPlan,
    /// What `plan`'s pipelines hold, each `None` while it is being rebuilt.
    built: Built,
}

impl WaaState {
    pub(crate) fn new() -> Self {
        Self { plan: WaaPlan::empty(), built: Built::default() }
    }
}

/// What a plan's two pipelines were built for. On one simulator the
/// encoding pipeline is a function of the encoding group's size `n_e`, and
/// the decoding pipeline of `n_e`, the TP setting and the TP speedup.
#[derive(Debug, Default)]
struct Built {
    enc: Option<usize>,
    dec: Option<(usize, TpConfig, u64)>,
}

/// Validates a WAA configuration and resolves its group split and layouts.
pub(crate) fn plan(sim: &Simulator, cfg: &WaaConfig) -> Result<WaaPlan, SimError> {
    let mut plan = WaaPlan::empty();
    plan_into(sim, cfg, &mut LayerTimes::default(), &mut plan, &mut Built::default())?;
    Ok(plan)
}

/// [`plan`] in `plan`'s buffers, keeping the layer times the group split
/// and the TP speedup look up in `times`. A pipeline is rebuilt unless
/// `built` says it already holds the split at hand; `built` then records
/// the new one.
///
/// The TP speedup sizes only the decoding pipeline's layer split. Where
/// every decoding stage is fused ([`PipelineLayout::all_fused`]) the split
/// is even at any speedup, so the speedup is not measured and the layout
/// takes 1.0: the one plan this builds for the estimate, the runner and
/// `PlanInvariants` alike.
fn plan_into(
    sim: &Simulator,
    cfg: &WaaConfig,
    times: &mut LayerTimes,
    plan: &mut WaaPlan,
    built: &mut Built,
) -> Result<(), SimError> {
    if cfg.b_e == 0 {
        return Err(SimError::InvalidConfig { what: "b_e", why: "must be at least 1".into() });
    }
    if cfg.b_m == 0 {
        return Err(SimError::InvalidConfig { what: "b_m", why: "must be at least 1".into() });
    }
    let n = sim.cluster().total_gpus();
    if n < 2 {
        return Err(SimError::InvalidConfig {
            what: "cluster",
            why: "WAA needs at least one encoding and one decoding gpu".into(),
        });
    }
    let w = sim.workload();
    let profile = sim.profile();
    let s_e = w.input().mean();
    let s_d = w.output().mean();
    let ctx = w.mean_decode_context().as_f64();

    // Decode pool sized for steady state: B_D = B_E * S_D (paper §4.1).
    let b_d = round_usize(lossless_f64(cfg.b_e) * s_d).max(1);
    if b_d > profile.max_batch() {
        return Err(SimError::InvalidConfig {
            what: "b_e",
            why: format!(
                "derived decode pool {b_d} exceeds the profiled maximum {}",
                profile.max_batch()
            ),
        });
    }
    if cfg.b_m > b_d {
        return Err(SimError::InvalidConfig {
            what: "b_m",
            why: format!("cannot split a pool of {b_d} into {} micro-batches", cfg.b_m),
        });
    }

    // --- Group split -----------------------------------------------------
    let enc_layers = sim.enc_layers_total();
    let dec_layers = sim.dec_layers_total();
    let enc = Pass::Encode { batch: lossless_f64(cfg.b_e), seq: s_e };
    let c_e = times.get(profile, enc, 1)? * lossless_f64(enc_layers);
    let dec = Pass::Decode { batch: lossless_f64(b_d), ctx, input_len: s_e };
    let c_d = times.get(profile, dec, 1)? * lossless_f64(dec_layers);
    let n_e = match cfg.variant {
        WaaVariant::Compute => split_by_ratio(n, c_e / (c_e + c_d)),
        WaaVariant::Memory => {
            let m_e = lossless_f64(enc_side_param_bytes(sim));
            let m_d =
                lossless_f64(dec_side_param_bytes(sim)) + lossless_f64(kv_pool_bytes(sim, b_d));
            split_by_ratio(n, m_e / (m_e + m_d))
        }
    };
    let n_dec = n - n_e;

    let WaaPlan { enc_layout, enc_alloc, dec_layout, dec_alloc, .. } = plan;
    let gpus_per_node = sim.cluster().gpus_per_node();
    if built.enc != Some(n_e) {
        built.enc = None;
        enc_layout.rebuild(n_e.min(enc_layers), TpConfig::none(), 1.0, gpus_per_node)?;
        enc_layout.allocate_layers_into(enc_layers, enc_alloc)?;
        built.enc = Some(n_e);
    }

    if cfg.tp.gpus > n_dec {
        return Err(SimError::InvalidConfig {
            what: "tp",
            why: format!("tp covers {} gpus but the decode group has {n_dec}", cfg.tp.gpus),
        });
    }
    let micro = lossless_f64(b_d) / lossless_f64(cfg.b_m);
    let speedup = if PipelineLayout::all_fused(n_dec, cfg.tp) {
        // The speedup's first lookup that can fail is at the TP degree: the
        // decode pass's stays, so an unprofiled degree fails here as before,
        // and the decode pass reuses it.
        times.get(profile, Pass::Decode { batch: micro, ctx, input_len: s_e }, cfg.tp.degree)?;
        1.0
    } else {
        sim.tp_speedup(cfg.tp, lossless_f64(cfg.b_e), micro, times)?
    };
    let dec_key = (n_e, cfg.tp, speedup.to_bits());
    if built.dec != Some(dec_key) {
        built.dec = None;
        dec_layout.rebuild(n_dec, cfg.tp, speedup, gpus_per_node)?;
        dec_layout.allocate_layers_into(dec_layers, dec_alloc)?;
        built.dec = Some(dec_key);
    }

    // Decoder-only models hand over the full prefill KV (all layers);
    // encoder-decoder models hand over the cross-attention KV.
    let kv_layers = match sim.model().kind() {
        ModelKind::DecoderOnly => sim.model().num_layers(),
        ModelKind::EncoderDecoder => dec_layers,
    };
    (plan.n_enc, plan.b_d, plan.kv_layers) = (n_e, b_d, kv_layers);
    Ok(())
}

/// Estimates `cfg` over the plan `state` keeps.
pub(crate) fn evaluate(
    sim: &Simulator,
    state: &mut WaaState,
    cfg: &WaaConfig,
) -> Result<Estimate, SimError> {
    // The group split and the TP speedup look up the encode pass's layer
    // time, and with TP the decode pass's at B_D / B_m: both are reused.
    let mut times = LayerTimes::default();
    let WaaState { plan, built } = state;
    plan_into(sim, cfg, &mut times, plan, built)?;
    let (enc_layout, enc_alloc) = (&plan.enc_layout, &plan.enc_alloc);
    let (dec_layout, dec_alloc) = (&plan.dec_layout, &plan.dec_alloc);
    let (b_d, kv_layers) = (plan.b_d, plan.kv_layers);
    let w = sim.workload();
    let profile = sim.profile();
    let s_e = w.input().mean();
    let ctx = w.mean_decode_context().as_f64();

    // --- Encoding pipeline (single-GPU stages) ---------------------------
    let enc = Pass::Encode { batch: lossless_f64(cfg.b_e), seq: s_e };
    let StageTimes { sum: enc_latency, bottleneck: p_enc } =
        enc_layout.stage_times_by(profile, enc_alloc, enc, |tp| times.get(profile, enc, tp))?;

    // --- Decoding pipeline (partial TP allowed) --------------------------
    let micro = lossless_f64(b_d) / lossless_f64(cfg.b_m);
    let stages_d = dec_layout.num_stages();
    let dec = Pass::Decode { batch: micro, ctx, input_len: s_e };
    let t_dstage = dec_layout
        .stage_times_by(profile, dec_alloc, dec, |tp| times.get(profile, dec, tp))?
        .bottleneck;
    // Micro-batches circulate the stage ring: the period of one decoding
    // iteration of the full pool is bounded by stage occupancy (m per
    // stage) or ring traversal (stages_d), whichever is longer.
    let p_dec = t_dstage * lossless_f64(cfg.b_m.max(stages_d));

    // --- KV handover ------------------------------------------------------
    let t_kv = profile.kv_transfer_time(lossless_f64(cfg.b_e) * s_e, kv_layers);

    // --- Steady state ------------------------------------------------------
    let period = p_enc.max(p_dec).max(t_kv * KV_TRANSFER_EXPOSED);
    let throughput = lossless_f64(cfg.b_e) / period.as_secs();
    let fill = t_dstage * lossless_f64(stages_d);
    let latency = (enc_latency + t_kv + fill + period * (lossless_f64(sim.l99()) - 1.0).max(0.0))
        * ADJUSTMENT_BUFFER;

    let memory = memory_report(sim, cfg, enc_alloc, dec_layout, dec_alloc, b_d)?;
    check_memory(&memory)?;

    Ok(Estimate {
        latency,
        throughput,
        memory,
        breakdown: Breakdown {
            encode_time: p_enc,
            decode_time: p_dec,
            period,
            stages: stages_d,
            decode_batch: b_d,
        },
    })
}

/// Rounded GPU split with both sides kept non-empty.
fn split_by_ratio(n: usize, enc_fraction: f64) -> usize {
    round_usize(lossless_f64(n) * enc_fraction).clamp(1, n - 1)
}

/// Parameter bytes the encoding group must hold in total: the encoder stack
/// for encoder-decoder models, a full replica for decoder-only models (the
/// paper's WAA memory overhead, §4.1).
fn enc_side_param_bytes(sim: &Simulator) -> u64 {
    widen_u64(sim.enc_layers_total()) * sim.enc_layer_bytes()
}

/// Parameter bytes the decoding group must hold in total.
fn dec_side_param_bytes(sim: &Simulator) -> u64 {
    widen_u64(sim.dec_layers_total()) * sim.dec_layer_bytes()
}

/// Total self+cross KV bytes of the decode pool.
fn kv_pool_bytes(sim: &Simulator, b_d: usize) -> u64 {
    let m = sim.model();
    let kv_self = trunc_u64(
        lossless_f64(b_d)
            * sim.kv_ctx_tokens().as_f64()
            * lossless_f64(m.kv_bytes_per_token_per_layer())
            * lossless_f64(sim.dec_layers_total()),
    );
    let kv_cross = m.cross_kv_cache_bytes(
        b_d,
        trunc_usize(sim.workload().input().mean()),
        sim.dec_layers_total(),
    );
    kv_self + kv_cross
}

fn memory_report(
    sim: &Simulator,
    cfg: &WaaConfig,
    enc_alloc: &[usize],
    dec_layout: &PipelineLayout,
    dec_alloc: &[usize],
    b_d: usize,
) -> Result<MemoryReport, SimError> {
    let m = sim.model();
    let s_e = sim.workload().input().mean();
    // Encoder GPU: its layer slice, prefill activations, and the in-flight
    // KV it produces before handover (double-buffered).
    let enc_worst_layers = widen_u64(enc_alloc.iter().copied().max().unwrap_or(0));
    let enc_params = enc_worst_layers * sim.enc_layer_bytes();
    let enc_tokens = ceil_usize(lossless_f64(cfg.b_e) * s_e);
    let enc_kv = 2 * m.kv_cache_bytes(cfg.b_e, ceil_usize(s_e), enc_alloc.len().max(1))
        / widen_u64(enc_alloc.len().max(1));
    let encoder_gpu = MemoryFootprint {
        param_bytes: enc_params,
        kv_bytes: enc_kv,
        activation_bytes: m.activation_bytes(1, enc_tokens),
    };

    // Decoder GPU: its layer slice (TP-sharded) plus its share of the pool.
    // Stages of one `(tp, layers)` class have one footprint, so each class
    // is computed once, and the first stage to reach the maximum wins.
    let dec_bytes = sim.dec_layer_bytes();
    let kv_self_per_layer = lossless_f64(b_d)
        * sim.kv_ctx_tokens().as_f64()
        * lossless_f64(m.kv_bytes_per_token_per_layer());
    let kv_cross_per_layer = lossless_f64(m.cross_kv_cache_bytes(b_d, trunc_usize(s_e), 1));
    let activation_bytes = m.activation_bytes((b_d / cfg.b_m).max(1), 1);
    let mut decoder_gpu = MemoryFootprint::default();
    let mut seen = [(0, 0); MEMORY_CLASSES];
    let mut n_seen = 0;
    for (stage, &dec) in dec_layout.stages().iter().zip(dec_alloc) {
        let class = (stage.tp, dec);
        if seen[..n_seen].contains(&class) {
            continue;
        }
        if let Some(slot) = seen.get_mut(n_seen) {
            *slot = class;
            n_seen += 1;
        }
        let params = widen_u64(dec) * dec_bytes / widen_u64(stage.tp);
        let (layers, tp) = (lossless_f64(dec), lossless_f64(stage.tp));
        let kv_bytes = trunc_u64(kv_self_per_layer * layers / tp)
            + trunc_u64(kv_cross_per_layer * layers / tp);
        let fp = MemoryFootprint { param_bytes: params, kv_bytes, activation_bytes };
        if fp.total() > decoder_gpu.total() {
            decoder_gpu = fp;
        }
    }

    Ok(MemoryReport { encoder_gpu, decoder_gpu, capacity: sim.usable_capacity() })
}

fn check_memory(report: &MemoryReport) -> Result<(), SimError> {
    if report.encoder_gpu.total() > report.capacity {
        return Err(SimError::OutOfMemory {
            role: "encoder",
            needed: report.encoder_gpu.total(),
            capacity: report.capacity,
        });
    }
    if report.decoder_gpu.total() > report.capacity {
        return Err(SimError::OutOfMemory {
            role: "decoder",
            needed: report.decoder_gpu.total(),
            capacity: report.capacity,
        });
    }
    Ok(())
}
