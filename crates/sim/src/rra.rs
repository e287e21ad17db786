//! Closed-form timeline of the RRA (Round-Robin Allocation) schedule
//! (paper §4.1 Figure 4a, §6 "Simulating RRA Schedule").
//!
//! Every GPU owns a round-robin slice of the model's encoders and decoders.
//! Execution alternates one *encoding phase* (admitting `B_E` new queries)
//! with `N_D` *decoding iterations* over the merged pool of `B_D` queries.
//! Early termination shrinks the active pool within a phase according to
//! the completion distribution `P_D(U)`; the next encoding phase refills it.

use std::sync::Arc;

use exegpt_dist::convert::{ceil_usize, lossless_f64, trunc_u64, trunc_usize, widen_u64};
use exegpt_dist::CompletionDist;
use exegpt_model::{MemoryFootprint, ModelKind};
use exegpt_profiler::{DecodeStageGrid, LayerProfile};
use exegpt_units::Secs;

use crate::cache::DecStageKey;
use crate::config::RraConfig;
use crate::error::SimError;
use crate::estimate::{Breakdown, Estimate, MemoryReport};
use crate::layout::{LayerTimes, Pass, PipelineLayout};
use crate::simulator::Simulator;

/// Upper bound on decode stage classes: stages run at TP degree 1 or the
/// configured degree, and hand off over an intra- or inter-node link.
const MAX_CLASSES: usize = 4;

/// Stages sharing a TP degree and boundary link, with the largest layer
/// allocation among them (the only one that can be the class bottleneck).
#[derive(Debug, Clone, Copy, Default)]
struct StageClass {
    tp: usize,
    intra: bool,
    alloc: usize,
}

/// Distinct `(tp, enc layers, dec layers)` stages whose footprint the
/// memory report keeps: two runs of stages, each with at most three
/// allocation pairs. Stages beyond it are computed directly.
const MEMORY_CLASSES: usize = 8;

/// Survival runs per chunk of the decode loop (stack arrays).
const DECODE_CHUNK: usize = 64;

pub(crate) fn evaluate(sim: &Simulator, cfg: &RraConfig) -> Result<Estimate, SimError> {
    if cfg.b_e == 0 {
        return Err(SimError::InvalidConfig { what: "b_e", why: "must be at least 1".into() });
    }
    if cfg.n_d == 0 {
        return Err(SimError::InvalidConfig { what: "n_d", why: "must be at least 1".into() });
    }
    let w = sim.workload();
    let profile = sim.profile();

    // Steady-state decode pool: B_D such that expected completions per phase
    // refill exactly B_E slots (paper §6). The completion analysis depends
    // only on N_D, so it comes from the simulator's evaluation cache.
    let series = sim.cache().completion(w.output(), cfg.n_d)?;
    let b_d = CompletionDist::decode_batch(series.fraction, cfg.b_e).ok_or_else(|| {
        SimError::NoSteadyState {
            why: format!("no query completes within N_D = {} iterations", cfg.n_d),
        }
    })?;
    if b_d > profile.max_batch() {
        return Err(SimError::InvalidConfig {
            what: "b_e",
            why: format!(
                "derived decode batch {b_d} exceeds the profiled maximum {}",
                profile.max_batch()
            ),
        });
    }

    // Pipeline structure under partial TP; layers allocated by stage speed.
    // Built afresh: most plans are used by one evaluation only, and a kept
    // plan costs more to store and free than to rebuild (DESIGN.md §4a).
    let mut times = LayerTimes::default();
    let RraPlan { layout, enc_alloc, dec_alloc } = plan_with(sim, cfg, b_d, &mut times)?;
    let stages = layout.num_stages();

    let s_e = w.input().mean();
    let ctx = w.mean_decode_context().as_f64();

    // --- Encoding phase -------------------------------------------------
    // B_E is split into one micro-batch per stage to fill the pipeline.
    let m_e = stages.min(cfg.b_e).max(1);
    let enc_micro = lossless_f64(cfg.b_e) / lossless_f64(m_e);
    // The TP speedup looked the encode layer times up at this micro-batch.
    let pass = Pass::Encode { batch: enc_micro, seq: s_e };
    let enc =
        layout.stage_times_by(profile, &enc_alloc, pass, |tp| times.get(profile, pass, tp))?;
    let t_enc: Secs = enc.sum + enc.bottleneck * (lossless_f64(m_e) - 1.0);

    // --- Memory, before the decode timeline --------------------------------
    // The check needs only the plan, B_D and the encode micro-batch, so an
    // out-of-memory configuration skips the O(N_D) decode loop. It returns
    // the error the timeline-first order returned: nothing below can fail
    // once the plan and the encode stage times have succeeded. Decode
    // stages run at TP degree 1 or the configured degree, over one of two
    // links, so there are at most MAX_CLASSES classes; the encode pass
    // looked up every stage's degree, so the decode lookups find their
    // tables; and the stage grids interpolate the profile's finite tables
    // at finite points.
    let memory = memory_report(sim, &layout, &enc_alloc, &dec_alloc, b_d, enc_micro * s_e)?;
    check_memory(&memory)?;

    // --- Decoding phase: N_D iterations over the shrinking pool ----------
    // The pool circulates as one micro-batch per stage; iteration `u` runs
    // with the expected active pool after earlier completions. The survival
    // series is precomputed with the completion analysis (O(N_D) total).
    // Iterations whose survival factor is bit-identical share one term; on
    // the paper grid's output distributions no two neighbours are, so runs
    // are single iterations, and they only collapse for point-mass-like
    // distributions, where P_D(U) has zero mass over long stretches.
    let m_d = stages.min(b_d).max(1);
    // Stages with the same TP degree and boundary link share their layer
    // time and handoff at any micro-batch size, so within such a class only
    // the largest layer allocation can be the bottleneck. Collapsing the
    // per-iteration stage scan to one entry per class (at most 4: stages run
    // at TP degree 1 or the configured degree, across an intra- or
    // inter-node link) removes most profile lookups from the hot loop.
    let mut classes = [StageClass::default(); MAX_CLASSES];
    let mut n_classes = 0;
    for ((stage, intra), &alloc) in
        layout.stages().iter().zip(layout.intra_node_links()).zip(&dec_alloc)
    {
        match classes[..n_classes].iter_mut().find(|c| c.tp == stage.tp && c.intra == intra) {
            Some(class) => class.alloc = class.alloc.max(alloc),
            None if n_classes < MAX_CLASSES => {
                classes[n_classes] = StageClass { tp: stage.tp, intra, alloc };
                n_classes += 1;
            }
            None => {
                return Err(SimError::InvalidConfig {
                    what: "tp",
                    why: format!("more than {MAX_CLASSES} decode stage classes"),
                })
            }
        }
    }
    // Each class's bottleneck term `alloc · t_layer(µ) + handoff(µ)` is a
    // cached `DecodeStageGrid`, bit-identical to the stage-cost kernel's
    // per-stage term outside the grid's knots.
    let mut grids: [Option<Arc<DecodeStageGrid>>; MAX_CLASSES] = Default::default();
    for (slot, &StageClass { tp, intra, alloc }) in grids.iter_mut().zip(&classes[..n_classes]) {
        *slot = Some(sim.cache().dec_stage_grid(DecStageKey { tp, intra, alloc }, || {
            Ok(profile.decode_stage_grid(ctx, s_e, tp, lossless_f64(alloc), intra)?)
        })?);
    }
    // The loop runs in chunks of up to DECODE_CHUNK survival runs, in three
    // passes over stack arrays: gather each run and its micro-batch; fold
    // every class's term into the chunk's bottlenecks (`fold_max` walks a
    // grid's regions and segments once per chunk, which needs micro-batches
    // that do not increase: survival is a running `1 − Σ` of non-negative
    // terms, and a chunk also ends early at any rise); then add the
    // bottlenecks in iteration order. Every estimate keeps the bits of the
    // per-iteration loop: `fold_max` matches a `Secs::max` fold of
    // `DecodeStageGrid::eval` from `+0.0`, which debug builds assert.
    let (b_d_f, m_d_f) = (lossless_f64(b_d), lossless_f64(m_d));
    let survival = &series.survival;
    let mut t_dec = Secs::ZERO;
    let mut fill = Secs::ZERO;
    let mut u = 0;
    while u < cfg.n_d {
        let first = u == 0;
        let mut runs = [0usize; DECODE_CHUNK];
        let mut micro = [0.0f64; DECODE_CHUNK];
        let mut len = 0;
        while len < DECODE_CHUNK && u < cfg.n_d {
            let s = survival[u];
            let mut run = 1;
            while u + run < cfg.n_d && survival[u + run].to_bits() == s.to_bits() {
                run += 1;
            }
            let m = (b_d_f * s).max(1.0) / m_d_f;
            if len > 0 && m > micro[len - 1] {
                break;
            }
            (runs[len], micro[len]) = (run, m);
            len += 1;
            u += run;
        }
        let (runs, micro) = (&runs[..len], &micro[..len]);
        let mut worst = [Secs::ZERO; DECODE_CHUNK];
        let worst = &mut worst[..len];
        for grid in grids.iter().flatten() {
            grid.fold_max(micro, worst);
        }
        debug_assert!(
            chunk_matches_scalar(profile, &classes[..n_classes], &grids, (ctx, s_e), micro, worst),
            "batched decode terms disagree with the scalar grid or the stage-cost kernel"
        );
        if first {
            fill = worst[0] * (lossless_f64(stages) - 1.0);
        }
        for (&w, &run) in worst.iter().zip(runs) {
            t_dec += w * (lossless_f64(run) * m_d_f);
        }
    }
    t_dec += fill;

    let t_phase = t_enc + t_dec;
    let throughput = lossless_f64(cfg.b_e) / t_phase.as_secs();
    // A query of 99th-percentile length spans ceil(L99 / N_D) full phases.
    let phases = lossless_f64(w.l99().div_ceil(cfg.n_d));
    let latency = t_phase * phases;

    Ok(Estimate {
        latency,
        throughput,
        memory,
        breakdown: Breakdown {
            encode_time: t_enc,
            decode_time: t_dec,
            period: t_phase,
            stages,
            decode_batch: b_d,
        },
    })
}

/// The decode loop's debug check of one chunk: each bottleneck in `worst`
/// is the `Secs::max` fold, from `+0.0`, of the classes' scalar
/// `DecodeStageGrid::eval` terms at its micro-batch, and each term outside
/// its grid's knots is the stage-cost kernel's, bit for bit.
fn chunk_matches_scalar(
    profile: &LayerProfile,
    classes: &[StageClass],
    grids: &[Option<Arc<DecodeStageGrid>>],
    (ctx, input_len): (f64, f64),
    micro: &[f64],
    worst: &[Secs],
) -> bool {
    micro.iter().zip(worst).all(|(&batch, worst)| {
        let mut scalar = Secs::ZERO;
        for (&StageClass { tp, intra, alloc }, grid) in classes.iter().zip(grids.iter().flatten()) {
            let t = grid.eval(batch);
            if !grid.covers(batch) {
                let pass = Pass::Decode { batch, ctx, input_len };
                let kernel = pass
                    .layer_time(profile, tp)
                    .map(|t_layer| pass.stage_cost(profile, t_layer, alloc, intra));
                if !kernel.is_ok_and(|k| k.as_secs().to_bits() == t.as_secs().to_bits()) {
                    return false;
                }
            }
            scalar = scalar.max(t);
        }
        scalar.as_secs().to_bits() == worst.as_secs().to_bits()
    })
}

/// The resolved pipeline structure of an RRA schedule: the stage layout and
/// the per-stage layer allocations for the encoding and decoding passes.
#[derive(Debug, Clone, PartialEq)]
pub struct RraPlan {
    /// Stage structure (partial TP applied).
    pub layout: PipelineLayout,
    /// Layers each stage traverses during encoding.
    pub enc_alloc: Vec<usize>,
    /// Layers each stage traverses per decoding iteration.
    pub dec_alloc: Vec<usize>,
}

impl RraPlan {
    /// Allocates both passes over `layout` by model kind: for
    /// encoder–decoder models each stage gets a share of the encoders *and*
    /// of the decoders (paper Figure 3, RRA); decoder-only models use one
    /// shared allocation for both passes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if a pass has fewer layers than
    /// the layout has stages.
    pub fn allocate(sim: &Simulator, layout: PipelineLayout) -> Result<Self, SimError> {
        let (enc_alloc, dec_alloc) = match sim.model().kind() {
            ModelKind::EncoderDecoder => (
                layout.allocate_layers(sim.enc_layers_total())?,
                layout.allocate_layers(sim.dec_layers_total())?,
            ),
            ModelKind::DecoderOnly => {
                let alloc = layout.allocate_layers(sim.model().num_layers())?;
                (alloc.clone(), alloc)
            }
        };
        Ok(Self { layout, enc_alloc, dec_alloc })
    }
}

/// Builds the pipeline plan for an RRA configuration with a known decode
/// pool size.
pub(crate) fn plan(sim: &Simulator, cfg: &RraConfig, b_d: usize) -> Result<RraPlan, SimError> {
    plan_with(sim, cfg, b_d, &mut LayerTimes::default())
}

/// [`plan`], keeping the layer times the TP speedup looks up in `times`.
fn plan_with(
    sim: &Simulator,
    cfg: &RraConfig,
    b_d: usize,
    times: &mut LayerTimes,
) -> Result<RraPlan, SimError> {
    let n = sim.cluster().total_gpus();
    let stages_f = if cfg.tp.is_none() {
        lossless_f64(n)
    } else if cfg.tp.degree > 0 && cfg.tp.gpus.is_multiple_of(cfg.tp.degree) {
        lossless_f64(((n.saturating_sub(cfg.tp.gpus)) + cfg.tp.gpus / cfg.tp.degree).max(1))
    } else {
        lossless_f64(n)
    };
    let speedup = sim.tp_speedup(
        cfg.tp,
        (lossless_f64(cfg.b_e) / stages_f).max(1.0),
        lossless_f64(b_d) / stages_f.max(1.0),
        times,
    )?;
    let layout = PipelineLayout::build(n, cfg.tp, speedup, sim.cluster().gpus_per_node())?;
    RraPlan::allocate(sim, layout)
}

/// The worst stage's footprint: its parameter slice, its share of the
/// decode pool's KV cache and the encode activations, TP-sharded. Stages of
/// one `(tp, enc layers, dec layers)` class have one footprint, so each
/// class is computed once, and the first stage to reach the maximum wins.
fn memory_report(
    sim: &Simulator,
    layout: &PipelineLayout,
    enc_alloc: &[usize],
    dec_alloc: &[usize],
    b_d: usize,
    enc_tokens: f64,
) -> Result<MemoryReport, SimError> {
    let m = sim.model();
    let (enc_bytes, dec_bytes) = (sim.enc_layer_bytes(), sim.dec_layer_bytes());
    // Self-attention KV per decoder layer, and cross-attention KV over the
    // cached inputs (encoder-decoder only), before TP sharding.
    let kv_self_per_layer = lossless_f64(b_d)
        * sim.kv_ctx_tokens().as_f64()
        * lossless_f64(m.kv_bytes_per_token_per_layer());
    let kv_cross_per_layer =
        lossless_f64(m.cross_kv_cache_bytes(b_d, trunc_usize(sim.workload().input().mean()), 1));
    let act = m.activation_bytes(1, ceil_usize(enc_tokens));
    let mut worst = MemoryFootprint::default();
    let mut seen = [(0, 0, 0); MEMORY_CLASSES];
    let mut n_seen = 0;
    for ((stage, &enc), &dec) in layout.stages().iter().zip(enc_alloc).zip(dec_alloc) {
        let class = (stage.tp, enc, dec);
        if seen[..n_seen].contains(&class) {
            continue;
        }
        if let Some(slot) = seen.get_mut(n_seen) {
            *slot = class;
            n_seen += 1;
        }
        let params = match m.kind() {
            // Encoder-decoder stages hold their encoder and decoder slices.
            ModelKind::EncoderDecoder => widen_u64(enc) * enc_bytes + widen_u64(dec) * dec_bytes,
            // Decoder-only stages hold one copy serving both passes.
            ModelKind::DecoderOnly => widen_u64(dec) * dec_bytes,
        } / widen_u64(stage.tp);
        let (layers, tp) = (lossless_f64(dec), lossless_f64(stage.tp));
        let kv = trunc_u64(kv_self_per_layer * layers / tp)
            + trunc_u64(kv_cross_per_layer * layers / tp);
        let activation_bytes = act / widen_u64(stage.tp);
        let fp = MemoryFootprint { param_bytes: params, kv_bytes: kv, activation_bytes };
        if fp.total() > worst.total() {
            worst = fp;
        }
    }
    Ok(MemoryReport { encoder_gpu: worst, decoder_gpu: worst, capacity: sim.usable_capacity() })
}

fn check_memory(report: &MemoryReport) -> Result<(), SimError> {
    if report.peak() > report.capacity {
        return Err(SimError::OutOfMemory {
            role: "worker",
            needed: report.peak(),
            capacity: report.capacity,
        });
    }
    Ok(())
}
