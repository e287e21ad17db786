//! Closed-form timeline of the RRA (Round-Robin Allocation) schedule
//! (paper §4.1 Figure 4a, §6 "Simulating RRA Schedule").
//!
//! Every GPU owns a round-robin slice of the model's encoders and decoders.
//! Execution alternates one *encoding phase* (admitting `B_E` new queries)
//! with `N_D` *decoding iterations* over the merged pool of `B_D` queries.
//! Early termination shrinks the active pool within a phase according to
//! the completion distribution `P_D(U)`; the next encoding phase refills it.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use exegpt_dist::convert::{ceil_usize, lossless_f64, trunc_u64, trunc_usize, widen_u64};
use exegpt_dist::{CompletionDist, CompletionSeries};
use exegpt_model::{MemoryFootprint, ModelKind};
use exegpt_profiler::DecodeStageGrid;
use exegpt_units::Secs;

use crate::cache::DecStageKey;
use crate::config::{RraConfig, TpConfig};
use crate::error::SimError;
use crate::estimate::{Breakdown, Estimate, MemoryReport};
use crate::layout::{LayerSplit, LayerTimes, Pass, PipelineLayout};
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

/// What RRA estimates keep across the evaluations of one
/// [`Scorer`](crate::Scorer): handles to the shared cache's completion
/// analyses and decode stage grids, each fetched from it once, and the plan
/// of the last layer split with its decode stage classes, rebuilt in place
/// when the split changes.
#[derive(Debug)]
pub(crate) struct RraState {
    completions: Completions,
    grids: Grids,
    plan: RraPlan,
    /// What `plan` holds; `None` while it is being rebuilt.
    built: Option<Built>,
    /// The decode stage classes of `plan`'s decode split, with their
    /// grids' slots in `grids`.
    classes: Option<DecodeClasses>,
}

impl RraState {
    pub(crate) fn new() -> Self {
        Self {
            completions: Completions(Vec::new()),
            grids: Grids { slots: BTreeMap::new(), grids: Vec::new() },
            plan: RraPlan::empty(),
            built: None,
            classes: None,
        }
    }
}

/// What a plan was built for, and the decode split it dealt. On one
/// simulator the layout is a function of the TP setting and the TP speedup,
/// and the allocations of the layout, so a plan holds while both repeat.
#[derive(Debug, Clone, Copy)]
struct Built {
    tp: TpConfig,
    speedup: u64,
    dec_split: LayerSplit,
}

/// The decode stage classes of one decode split (the TP setting lays out
/// the stages and their links, the split their layer counts), by the slots
/// of their grids in [`Grids`].
#[derive(Debug, Clone, Copy)]
struct DecodeClasses {
    tp: TpConfig,
    dec_split: LayerSplit,
    slots: [usize; MAX_CLASSES],
    len: usize,
}

/// Completion analyses, indexed by `N_D`.
#[derive(Debug)]
struct Completions(Vec<Option<Arc<CompletionSeries>>>);

impl Completions {
    /// The completion analysis for `n_d`, from the shared cache on first
    /// use.
    fn get(&mut self, sim: &Simulator, n_d: usize) -> Result<&CompletionSeries, SimError> {
        if self.0.len() <= n_d {
            self.0.resize(n_d + 1, None);
        }
        let slot = &mut self.0[n_d];
        let series = match slot.take() {
            Some(series) => series,
            None => sim.cache().completion(sim.workload().output(), n_d)?,
        };
        Ok(slot.insert(series))
    }
}

/// Decode stage grids, or the error building one gave, in the order they
/// were fetched, with each stage class's slot.
#[derive(Debug)]
struct Grids {
    slots: BTreeMap<DecStageKey, usize>,
    grids: Vec<Result<Arc<DecodeStageGrid>, SimError>>,
}

impl Grids {
    /// The slot of the grid of `key`, fetched from the shared cache on
    /// first use, or the error building it gave.
    fn fetch(&mut self, sim: &Simulator, key: DecStageKey) -> Result<usize, SimError> {
        let slot = match self.slots.entry(key) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let w = sim.workload();
                let (ctx, s_e) = (w.mean_decode_context().as_f64(), w.input().mean());
                let DecStageKey { tp, intra, alloc } = key;
                self.grids.push(sim.cache().dec_stage_grid(key, || {
                    Ok(sim.profile().decode_stage_grid(ctx, s_e, tp, lossless_f64(alloc), intra)?)
                }));
                *entry.insert(self.grids.len() - 1)
            }
        };
        match self.grids.get(slot) {
            Some(Err(e)) => Err(e.clone()),
            _ => Ok(slot),
        }
    }

    /// The grid in a slot [`fetch`](Self::fetch) returned.
    fn get(&self, slot: usize) -> Option<&DecodeStageGrid> {
        self.grids.get(slot).and_then(|grid| grid.as_deref().ok())
    }
}

pub(crate) fn evaluate(
    sim: &Simulator,
    state: &mut RraState,
    cfg: &RraConfig,
) -> Result<Estimate, SimError> {
    evaluate_with(sim, state, cfg, decode_sum)
}

/// [`Simulator::evaluate_rra`] with the decode phase summed one iteration
/// at a time by [`decode_sum_scalar`]: the reference the closed form is
/// tested against.
///
/// # Errors
///
/// As [`Simulator::evaluate_rra`].
#[doc(hidden)]
pub fn evaluate_scalar(sim: &Simulator, cfg: &RraConfig) -> Result<Estimate, SimError> {
    evaluate_with(sim, &mut RraState::new(), cfg, decode_sum_scalar)
}

fn evaluate_with(
    sim: &Simulator,
    state: &mut RraState,
    cfg: &RraConfig,
    decode: impl Fn(&[&DecodeStageGrid], &CompletionSeries, usize, usize) -> Secs,
) -> Result<Estimate, SimError> {
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
    // only on N_D: the scorer holds it, fetched once from the simulator's
    // evaluation cache.
    let RraState { completions, grids: held, plan, built, classes } = state;
    let series = completions.get(sim, cfg.n_d)?;
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
    // Kept while the TP setting and speedup repeat, otherwise rebuilt in
    // place in buffers that keep their capacity (DESIGN.md §4a).
    let mut times = LayerTimes::default();
    let dec_split = plan_into(sim, cfg, b_d, &mut times, plan, built)?;
    let RraPlan { layout, enc_alloc, dec_alloc } = &*plan;
    let stages = layout.num_stages();

    let s_e = w.input().mean();

    // --- Encoding phase -------------------------------------------------
    // B_E is split into one micro-batch per stage to fill the pipeline.
    let m_e = stages.min(cfg.b_e).max(1);
    let enc_micro = lossless_f64(cfg.b_e) / lossless_f64(m_e);
    // The plan builder looked the encode layer times up at this micro-batch
    // (the TP speedup's, or the fused degree's alone).
    let pass = Pass::Encode { batch: enc_micro, seq: s_e };
    let enc = layout.stage_times_by(profile, enc_alloc, pass, |tp| times.get(profile, pass, tp))?;
    let t_enc: Secs = enc.sum + enc.bottleneck * (lossless_f64(m_e) - 1.0);

    // --- Memory, before the decode timeline --------------------------------
    // The check needs only the plan, B_D and the encode micro-batch, so an
    // out-of-memory configuration skips the decode sum. It returns
    // the error the timeline-first order returned: nothing below can fail
    // once the plan and the encode stage times have succeeded. Decode
    // stages run at TP degree 1 or the configured degree, over one of two
    // links, so there are at most MAX_CLASSES classes; the encode pass
    // looked up every stage's degree, so the decode lookups find their
    // tables; and the stage grids interpolate the profile's finite tables
    // at finite points.
    let memory = memory_report(sim, layout, enc_alloc, dec_alloc, b_d, enc_micro * s_e)?;
    check_memory(&memory)?;

    // --- Decoding phase: N_D iterations over the shrinking pool ----------
    // The pool circulates as one micro-batch per stage; iteration `u` runs
    // with the expected active pool after earlier completions, from the
    // survival series precomputed with the completion analysis.
    let m_d = stages.min(b_d).max(1);
    // The bottleneck is the largest of one term per decode stage class
    // (`decode_classes`). The classes and their grids' slots are kept while
    // the decode split repeats.
    let known = match *classes {
        Some(known) if known.tp == cfg.tp && known.dec_split == dec_split => known,
        _ => {
            *classes = None;
            let known = decode_classes(sim, held, layout, dec_alloc, cfg.tp, dec_split)?;
            *classes = Some(known);
            known
        }
    };
    let slots = &known.slots[..known.len];
    let Some(first) = slots.first().and_then(|&slot| held.get(slot)) else {
        return Err(SimError::InvalidConfig { what: "tp", why: "no decode stage".into() });
    };
    let mut grids = [first; MAX_CLASSES];
    for (grid, &slot) in grids.iter_mut().zip(slots) {
        *grid = held.get(slot).unwrap_or(first);
    }
    let grids = &grids[..known.len];
    // `t_dec = m_d · Σ_u F(µ_u) + fill`, with the sum in closed form
    // (`decode_sum`), which debug builds check against the per-iteration
    // sum, and the pipeline filling at the first iteration's bottleneck.
    let sum = decode(grids, series, b_d, m_d);
    debug_assert!(
        within_oracle(sum, decode_sum_scalar(grids, series, b_d, m_d)),
        "closed-form decode sum {sum:?} strays from the per-iteration sum"
    );
    let m_d_f = lossless_f64(m_d);
    let first_micro = (lossless_f64(b_d) * series.survival[0]).max(1.0) / m_d_f;
    let fill = bottleneck(grids, first_micro) * (lossless_f64(stages) - 1.0);
    let t_dec = sum * m_d_f + fill;

    let t_phase = t_enc + t_dec;
    let throughput = lossless_f64(cfg.b_e) / t_phase.as_secs();
    // A query of 99th-percentile length spans ceil(L99 / N_D) full phases.
    let phases = lossless_f64(sim.l99().div_ceil(cfg.n_d));
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

/// The decode stage classes of `layout` under `dec_alloc`, whose decode
/// split is `dec_split`, with their grids fetched into `held`.
fn decode_classes(
    sim: &Simulator,
    held: &mut Grids,
    layout: &PipelineLayout,
    dec_alloc: &[usize],
    tp: TpConfig,
    dec_split: LayerSplit,
) -> Result<DecodeClasses, SimError> {
    // Stages with the same TP degree and boundary link share their layer
    // time and handoff at any micro-batch size, so within such a class only
    // the largest layer allocation can be the bottleneck. The bottleneck is
    // the largest of one term per class (at most 4: stages run at TP degree
    // 1 or the configured degree, across an intra- or inter-node link).
    let mut classes = [StageClass::default(); MAX_CLASSES];
    let mut len = 0;
    for ((stage, intra), &alloc) in
        layout.stages().iter().zip(layout.intra_node_links()).zip(dec_alloc)
    {
        match classes[..len].iter_mut().find(|c| c.tp == stage.tp && c.intra == intra) {
            Some(class) => class.alloc = class.alloc.max(alloc),
            None if len < MAX_CLASSES => {
                classes[len] = StageClass { tp: stage.tp, intra, alloc };
                len += 1;
            }
            None => {
                return Err(SimError::InvalidConfig {
                    what: "tp",
                    why: format!("more than {MAX_CLASSES} decode stage classes"),
                })
            }
        }
    }
    // Each class's term `alloc · t_layer(µ) + handoff(µ)` is a cached
    // `DecodeStageGrid`, bit-identical to the stage-cost kernel's per-stage
    // term outside the grid's knots.
    let mut slots = [0; MAX_CLASSES];
    for (slot, &StageClass { tp, intra, alloc }) in slots.iter_mut().zip(&classes[..len]) {
        *slot = held.fetch(sim, DecStageKey { tp, intra, alloc })?;
    }
    Ok(DecodeClasses { tp, dec_split, slots, len })
}

/// `Σ_u F(µ_u)` over one decode phase, in closed form: `F(µ) = max_c
/// f_c(µ)` is the bottleneck of the stage classes' terms `grids` (at most
/// four are read, the most an RRA layout has), and `µ_u = max(b_d·s_u, 1) /
/// m_d` the micro-batch at iteration `u`'s survival `s_u` in `series`.
///
/// The micro-batch never grows along a phase: survival is a running
/// `1 − Σ` of non-negative terms. `F` is one line between the classes'
/// breakpoints and the points where two classes cross, and on a piece
/// where it is one line, the `n` iterations there sum to `n·F(µ̄)` at
/// their mean micro-batch `µ̄`. So the sum walks the breakpoints down from
/// the first iteration's micro-batch, evaluating each class once per
/// breakpoint, finds each piece's iterations by a binary search on the
/// survival series, and takes `µ̄` from a slice sum of it. It is exact in
/// real arithmetic; [`decode_sum_scalar`] is the reference, within a
/// relative `1e-12`.
#[doc(hidden)]
pub fn decode_sum(
    grids: &[&DecodeStageGrid],
    series: &CompletionSeries,
    b_d: usize,
    m_d: usize,
) -> Secs {
    let survival = &series.survival[..];
    let (b_d, m_d) = (lossless_f64(b_d), lossless_f64(m_d));
    let micro = |s: f64| (b_d * s).max(1.0) / m_d;
    let grids = &grids[..grids.len().min(MAX_CLASSES)];
    let (Some(&first), Some(&last), false) = (survival.first(), survival.last(), grids.is_empty())
    else {
        return Secs::ZERO;
    };
    let (top, floor) = (micro(first), micro(last));
    // From `clamped` on, iterations run at the one-query floor `1 / m_d`.
    let clamped = survival.partition_point(|&s| b_d * s >= 1.0);
    // Per class: how many of its breakpoints lie below the current piece,
    // and its term at the piece's upper and lower ends.
    let mut below = [0; MAX_CLASSES];
    let (mut upper, mut lower) = ([0.0; MAX_CLASSES], [0.0; MAX_CLASSES]);
    for ((n, y), g) in below.iter_mut().zip(&mut upper).zip(grids) {
        *n = g.breakpoints().partition_point(|&p| p < top);
        *y = g.eval(top).as_secs();
    }
    let (mut hi, mut u, mut total) = (top, 0, 0.0);
    loop {
        let lo = grids
            .iter()
            .zip(&below)
            .filter_map(|(g, &n)| n.checked_sub(1).map(|k| g.breakpoints()[k]))
            .fold(floor, f64::max);
        let last = lo <= floor;
        for ((n, y), g) in below.iter_mut().zip(&mut lower).zip(grids) {
            *n = g.breakpoints()[..*n].partition_point(|&p| p < lo);
            *y = g.eval(lo).as_secs();
        }
        // Every class is one line on `[lo, hi]`; walk down their upper
        // envelope from the class on top at `hi` (on a tie, the one that
        // stays on top below it). `t` runs from 0 at `hi` to 1 at `lo`.
        let width = hi - lo;
        let mut w = 0;
        for c in 1..grids.len() {
            if (upper[c], lower[c]) > (upper[w], lower[w]) {
                w = c;
            }
        }
        let mut t = 0.0;
        loop {
            // The first class to overtake `w` further down, and where.
            let mut overtake: Option<(f64, usize)> = None;
            for c in 0..grids.len() {
                let (gap, rise) = (upper[w] - upper[c], lower[c] - lower[w]);
                if rise > 0.0 {
                    let at = if gap + rise > 0.0 { (gap / (gap + rise)).clamp(t, 1.0) } else { t };
                    if overtake.is_none_or(|(best, _)| at < best) {
                        overtake = Some((at, c));
                    }
                }
            }
            let end = match overtake {
                Some((at, _)) => u + survival[u..].partition_point(|&s| micro(s) > hi - at * width),
                None if last => survival.len(),
                None => u + survival[u..].partition_point(|&s| micro(s) > lo),
            };
            if end > u {
                let k = clamped.clamp(u, end);
                let n = lossless_f64(end - u);
                let mean = (b_d * sum(&survival[u..k]) + lossless_f64(end - k)) / m_d / n;
                let tm = if width > 0.0 { (hi - mean) / width } else { 0.0 };
                total += n * (upper[w] + tm * (lower[w] - upper[w]));
            }
            u = end;
            match overtake {
                Some((at, c)) => (t, w) = (at, c),
                None => break,
            }
        }
        if last {
            return Secs::new(total);
        }
        (hi, upper) = (lo, lower);
    }
}

/// [`decode_sum`] one iteration at a time: the reference it is checked
/// against.
#[doc(hidden)]
pub fn decode_sum_scalar(
    grids: &[&DecodeStageGrid],
    series: &CompletionSeries,
    b_d: usize,
    m_d: usize,
) -> Secs {
    let (b_d, m_d) = (lossless_f64(b_d), lossless_f64(m_d));
    series.survival.iter().map(|&s| bottleneck(grids, (b_d * s).max(1.0) / m_d)).sum()
}

/// `F(µ)`: the `Secs::max` fold of the classes' terms at `micro`, from zero.
fn bottleneck(grids: &[&DecodeStageGrid], micro: f64) -> Secs {
    grids.iter().fold(Secs::ZERO, |worst, g| worst.max(g.eval(micro)))
}

/// Whether `sum` is within a relative `1e-12` of the per-iteration `oracle`.
fn within_oracle(sum: Secs, oracle: Secs) -> bool {
    (sum.as_secs() - oracle.as_secs()).abs() <= 1e-12 * oracle.as_secs()
}

/// `Σ xs`, in four lanes so the adds overlap.
fn sum(xs: &[f64]) -> f64 {
    let mut lanes = [0.0; 4];
    let chunks = xs.chunks_exact(4);
    let tail: f64 = chunks.remainder().iter().sum();
    for chunk in chunks {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane += x;
        }
    }
    lanes.iter().sum::<f64>() + tail
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
        let mut plan = Self { layout, enc_alloc: Vec::new(), dec_alloc: Vec::new() };
        plan.reallocate(sim)?;
        Ok(plan)
    }

    /// A plan of no stages, for [`plan_into`] to fill.
    fn empty() -> Self {
        Self { layout: PipelineLayout::empty(), enc_alloc: Vec::new(), dec_alloc: Vec::new() }
    }

    /// [`allocate`](Self::allocate) over this plan's layout, into its
    /// allocation `Vec`s, returning the decode pass's split.
    fn reallocate(&mut self, sim: &Simulator) -> Result<LayerSplit, SimError> {
        let Self { layout, enc_alloc, dec_alloc } = self;
        match sim.model().kind() {
            ModelKind::EncoderDecoder => {
                layout.allocate_layers_into(sim.enc_layers_total(), enc_alloc)?;
                layout.allocate_layers_into(sim.dec_layers_total(), dec_alloc)
            }
            ModelKind::DecoderOnly => {
                let split = layout.allocate_layers_into(sim.model().num_layers(), dec_alloc)?;
                enc_alloc.clone_from(dec_alloc);
                Ok(split)
            }
        }
    }
}

/// Builds the pipeline plan for an RRA configuration with a known decode
/// pool size.
pub(crate) fn plan(sim: &Simulator, cfg: &RraConfig, b_d: usize) -> Result<RraPlan, SimError> {
    let mut plan = RraPlan::empty();
    plan_into(sim, cfg, b_d, &mut LayerTimes::default(), &mut plan, &mut None)?;
    Ok(plan)
}

/// [`plan`] in `plan`'s buffers, keeping the layer times it looks up in
/// `times`, and returning the decode pass's layer split. The plan is
/// rebuilt unless `built` says it already holds the TP setting and speedup
/// at hand; `built` then records the new one.
///
/// The TP speedup sizes only the layer split. Where every stage is fused
/// ([`PipelineLayout::all_fused`]) the split is even at any speedup, so
/// the speedup is not measured and the layout takes 1.0: the one plan this
/// builds for the estimate, the runner and `PlanInvariants` alike.
fn plan_into(
    sim: &Simulator,
    cfg: &RraConfig,
    b_d: usize,
    times: &mut LayerTimes,
    plan: &mut RraPlan,
    built: &mut Option<Built>,
) -> Result<LayerSplit, SimError> {
    let n = sim.cluster().total_gpus();
    let stages_f = lossless_f64(PipelineLayout::stage_count(n, cfg.tp));
    let enc_batch = (lossless_f64(cfg.b_e) / stages_f).max(1.0);
    let speedup = if PipelineLayout::all_fused(n, cfg.tp) {
        // The speedup's first lookup that can fail is the encode pass's at
        // the TP degree: it stays, so an unprofiled degree fails here as
        // before, and the encode pass reuses it.
        let pass = Pass::Encode { batch: enc_batch, seq: sim.workload().input().mean() };
        times.get(sim.profile(), pass, cfg.tp.degree)?;
        1.0
    } else {
        sim.tp_speedup(cfg.tp, enc_batch, lossless_f64(b_d) / stages_f.max(1.0), times)?
    };
    if let Some(held) = *built {
        if held.tp == cfg.tp && held.speedup == speedup.to_bits() {
            return Ok(held.dec_split);
        }
    }
    *built = None;
    plan.layout.rebuild(n, cfg.tp, speedup, sim.cluster().gpus_per_node())?;
    let dec_split = plan.reallocate(sim)?;
    *built = Some(Built { tp: cfg.tp, speedup: speedup.to_bits(), dec_split });
    Ok(dec_split)
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
