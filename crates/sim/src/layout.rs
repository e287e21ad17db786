//! Pipeline layout: mapping GPUs to stages under partial tensor parallelism,
//! and the one per-stage cost kernel every timing model shares.

use exegpt_dist::convert::{lossless_f64, trunc_usize};
use exegpt_model::ModelConfig;
use exegpt_profiler::{LayerProfile, ProfileError};
use exegpt_units::{Bytes, Secs};
use serde::Serialize;

use crate::config::TpConfig;
use crate::error::SimError;

/// One pipeline stage: a single GPU or a fused tensor-parallel group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Stage {
    /// Tensor-parallel degree inside the stage (1 for a single GPU).
    pub tp: usize,
    /// First GPU id (within the pipeline's GPU range) of this stage.
    pub first_gpu: usize,
    /// Number of GPUs in the stage (= `tp`).
    pub gpus: usize,
    /// Relative processing speed of the stage (single GPU = 1.0).
    pub speed: f64,
}

/// One pass through the pipeline at one operating point: which profiled
/// layer time a stage's layers cost, and how many tokens a stage hands to
/// the next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pass {
    /// Encoding; a stage hands off `batch · seq` tokens.
    Encode {
        /// Queries per micro-batch.
        batch: f64,
        /// Mean input length.
        seq: f64,
    },
    /// One decoding iteration; a stage hands off `batch` tokens.
    Decode {
        /// Queries per micro-batch.
        batch: f64,
        /// Mean total context.
        ctx: f64,
        /// Mean cached input length (cross-attention).
        input_len: f64,
    },
}

impl Pass {
    /// One layer's time at TP degree `tp`.
    pub(crate) fn layer_time(self, p: &LayerProfile, tp: usize) -> Result<Secs, ProfileError> {
        match self {
            Pass::Encode { batch, seq } => p.encode_layer_time(batch, seq, tp),
            Pass::Decode { batch, ctx, input_len } => {
                p.decode_layer_time(batch, ctx, input_len, tp)
            }
        }
    }

    /// The per-stage term: `layers · t_layer + handoff(tokens, link)`.
    pub(crate) fn stage_cost(
        self,
        p: &LayerProfile,
        t_layer: Secs,
        layers: usize,
        intra: bool,
    ) -> Secs {
        let tokens = match self {
            Pass::Encode { batch, seq } => batch * seq,
            Pass::Decode { batch, .. } => batch,
        };
        t_layer * lossless_f64(layers) + p.handoff_time(tokens, intra)
    }
}

/// Layer times [`LayerTimes`] keeps: an estimate looks up at most five
/// (pass, TP degree) points.
const LAYER_TIMES: usize = 6;

/// The layer times one estimate has looked up, keyed by the pass's bits and
/// the TP degree. Lookups are pure, so a pass at a point seen before reuses
/// its time: the TP speedup and the WAA group split look up the same points
/// the pipeline passes then time.
#[derive(Debug, Default)]
pub(crate) struct LayerTimes {
    seen: [(PointKey, Secs); LAYER_TIMES],
    len: usize,
}

/// A layer time's point: decode or not, the pass's operating point as
/// bits, and the TP degree.
type PointKey = (bool, [u64; 3], usize);

impl LayerTimes {
    /// `pass.layer_time(profile, tp)`, looked up once per point.
    pub(crate) fn get(
        &mut self,
        profile: &LayerProfile,
        pass: Pass,
        tp: usize,
    ) -> Result<Secs, ProfileError> {
        let key = match pass {
            Pass::Encode { batch, seq } => (false, [batch.to_bits(), seq.to_bits(), 0], tp),
            Pass::Decode { batch, ctx, input_len } => {
                (true, [batch.to_bits(), ctx.to_bits(), input_len.to_bits()], tp)
            }
        };
        if let Some(&(_, t)) = self.seen[..self.len].iter().find(|(k, _)| *k == key) {
            return Ok(t);
        }
        let t = pass.layer_time(profile, tp)?;
        if let Some(slot) = self.seen.get_mut(self.len) {
            *slot = (key, t);
            self.len += 1;
        }
        Ok(t)
    }
}

/// Stage classes whose term [`PipelineLayout::stage_times`] keeps: two TP
/// degrees and two links cover most layouts, but layer counts can split a
/// class, so the rest are computed per stage.
const STAGE_CLASSES: usize = 4;

/// Sum and maximum of one pass's per-stage times.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimes {
    /// Stage times added in pipeline order (one micro-batch's traversal).
    pub sum: Secs,
    /// The bottleneck stage time.
    pub bottleneck: Secs,
}

/// How [`PipelineLayout::allocate_layers`] dealt a layer count: each run's
/// whole share, the full rounds and the extra layers of the leftover, and
/// whether the fused run's remainder ranks first. The counts are a function
/// of the layout and the split, so on one layout equal splits are equal
/// allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LayerSplit {
    fused_share: usize,
    single_share: usize,
    rounds: usize,
    extra: usize,
    fused_first: bool,
}

/// The pipeline structure induced by a GPU count and a partial-TP setting
/// (paper Figure 4d): `tp.gpus / tp.degree` fused stages followed by
/// `n_gpus − tp.gpus` single-GPU stages.
///
/// Layers are allocated to stages proportionally to measured stage speed so
/// that stage times balance; [`PipelineLayout::allocate_layers`] performs
/// the integer split.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelineLayout {
    stages: Vec<Stage>,
    gpus_per_node: usize,
}

impl PipelineLayout {
    /// Builds the stage structure for `n_gpus` GPUs under `tp`.
    ///
    /// `tp_speedup` is the measured relative speed of a fused stage versus a
    /// single GPU (i.e. `t_layer(tp=1) / t_layer(tp=degree)` at the
    /// schedule's operating point); it sizes the layer allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `n_gpus == 0`, the TP group
    /// size does not divide `tp.gpus`, or `tp.gpus > n_gpus`.
    pub fn build(
        n_gpus: usize,
        tp: TpConfig,
        tp_speedup: f64,
        gpus_per_node: usize,
    ) -> Result<Self, SimError> {
        let mut layout = Self::empty();
        layout.rebuild(n_gpus, tp, tp_speedup, gpus_per_node)?;
        Ok(layout)
    }

    /// A layout of no stages, for [`rebuild`](Self::rebuild) to fill.
    pub(crate) fn empty() -> Self {
        Self { stages: Vec::new(), gpus_per_node: 1 }
    }

    /// [`build`](Self::build) into this layout's stage `Vec`, which keeps
    /// its capacity: the estimators rebuild a layout whenever its split
    /// changes. On an error the layout is left as it was.
    pub(crate) fn rebuild(
        &mut self,
        n_gpus: usize,
        tp: TpConfig,
        tp_speedup: f64,
        gpus_per_node: usize,
    ) -> Result<(), SimError> {
        if n_gpus == 0 {
            return Err(SimError::InvalidConfig {
                what: "n_gpus",
                why: "pipeline needs at least one gpu".to_string(),
            });
        }
        let (fused, degree) = if tp.is_none() {
            (0, 1)
        } else {
            if !tp.gpus.is_multiple_of(tp.degree) {
                return Err(SimError::InvalidConfig {
                    what: "tp",
                    why: format!("{} gpus is not a multiple of degree {}", tp.gpus, tp.degree),
                });
            }
            if tp.gpus > n_gpus {
                return Err(SimError::InvalidConfig {
                    what: "tp",
                    why: format!("tp covers {} gpus but the pipeline has {n_gpus}", tp.gpus),
                });
            }
            #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must be rejected too")]
            if !(tp_speedup > 0.0) {
                return Err(SimError::InvalidConfig {
                    what: "tp_speedup",
                    why: "must be positive".to_string(),
                });
            }
            (tp.gpus / tp.degree, tp.degree)
        };
        let n = Self::stage_count(n_gpus, tp);
        self.stages.clear();
        self.stages.reserve(n);
        let mut first_gpu = 0;
        for i in 0..n {
            let (tp, speed) = if i < fused { (degree, tp_speedup) } else { (1, 1.0) };
            self.stages.push(Stage { tp, first_gpu, gpus: tp, speed });
            first_gpu += tp;
        }
        self.gpus_per_node = gpus_per_node.max(1);
        Ok(())
    }

    /// The number of stages [`build`](Self::build) lays out for `n_gpus`
    /// GPUs under `tp`: `tp.gpus / tp.degree` fused stages plus `n_gpus −
    /// tp.gpus` singles. It is total, so the RRA estimate can measure its
    /// TP speedup at this count before `build` validates `tp`: where
    /// `build` rejects the degree as not dividing `tp.gpus` it is `n_gpus`,
    /// and where `tp` covers more GPUs than there are, the fused stages
    /// alone (at least one).
    pub(crate) fn stage_count(n_gpus: usize, tp: TpConfig) -> usize {
        if tp.is_none() || !tp.gpus.is_multiple_of(tp.degree) {
            return n_gpus;
        }
        (n_gpus.saturating_sub(tp.gpus) + tp.gpus / tp.degree).max(1)
    }

    /// Whether every stage [`build`](Self::build) lays out for `n_gpus`
    /// GPUs under `tp` is fused: `tp` covers them all, in groups of its
    /// degree. Every stage then runs at the TP speedup, so the layer split
    /// is the even split whatever the speedup is, and the plan builders
    /// do not measure it.
    pub(crate) fn all_fused(n_gpus: usize, tp: TpConfig) -> bool {
        !tp.is_none() && tp.gpus == n_gpus && tp.gpus.is_multiple_of(tp.degree)
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total GPUs across all stages.
    pub fn total_gpus(&self) -> usize {
        self.stages.iter().map(|s| s.gpus).sum()
    }

    /// The stages in pipeline order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Whether the handoff between stage `i` and `i + 1` stays inside one
    /// node (GPU ids are assigned contiguously from the pipeline's base).
    pub fn boundary_intra_node(&self, i: usize) -> bool {
        if i + 1 >= self.stages.len() {
            return true;
        }
        let a = self.stages[i].first_gpu + self.stages[i].gpus - 1;
        let b = self.stages[i + 1].first_gpu;
        a / self.gpus_per_node == b / self.gpus_per_node
    }

    /// [`boundary_intra_node`](Self::boundary_intra_node) of every stage in
    /// pipeline order, without a division: a handoff crosses nodes exactly
    /// when the next stage starts on a node's first GPU, and the walk steps
    /// a node start up through those GPU ids. The last stage's is `true`.
    pub fn intra_node_links(&self) -> impl Iterator<Item = bool> + '_ {
        let per_node = self.gpus_per_node.max(1);
        let mut node_start = 0;
        let links = self.stages.iter().skip(1).map(move |next| {
            while node_start < next.first_gpu {
                node_start += per_node;
            }
            node_start != next.first_gpu
        });
        links.chain(std::iter::once(true))
    }

    /// Splits `total_layers` across stages proportionally to stage speed
    /// (largest-remainder rounding, every stage at least one layer).
    ///
    /// The stages form two runs of equal speed, fused TP stages and then
    /// singles, so every stage of a run has the same ideal share and the
    /// same remainder, and the split is computed per run: the leftover
    /// layers go round the stages in descending remainder order, ties in
    /// stage order, as a stable sort of the remainders would deal them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if there are fewer layers than
    /// stages.
    pub fn allocate_layers(&self, total_layers: usize) -> Result<Vec<usize>, SimError> {
        let mut counts = Vec::new();
        self.allocate_layers_into(total_layers, &mut counts)?;
        Ok(counts)
    }

    /// [`allocate_layers`](Self::allocate_layers) into `counts`, which
    /// keeps its capacity, returning the split it dealt. On an error
    /// `counts` is left as it was.
    pub(crate) fn allocate_layers_into(
        &self,
        total_layers: usize,
        counts: &mut Vec<usize>,
    ) -> Result<LayerSplit, SimError> {
        let n = self.stages.len();
        if total_layers < n {
            return Err(SimError::InvalidConfig {
                what: "layers",
                why: format!("{total_layers} layers cannot fill {n} stages"),
            });
        }
        let speed_sum: f64 = self.stages.iter().map(|s| s.speed).sum();
        // Give every stage one layer up front, split the rest by speed.
        let spare = total_layers - n;
        let fused = self.stages.partition_point(|s| s.tp > 1);
        // A run's whole share and remainder, from its first stage's speed.
        let run = |stages: &[Stage]| {
            stages.first().map_or((0, 0.0), |s| {
                let ideal = lossless_f64(spare) * s.speed / speed_sum;
                (trunc_usize(ideal), ideal - ideal.floor())
            })
        };
        let (fused_share, fused_rem) = run(&self.stages[..fused]);
        let (single_share, single_rem) = run(&self.stages[fused..]);
        let assigned = fused * fused_share + (n - fused) * single_share;
        // Largest remainders get the leftover layers, round after round.
        let leftover = spare.saturating_sub(assigned);
        let (rounds, extra) =
            (leftover.checked_div(n).unwrap_or(0), leftover.checked_rem(n).unwrap_or(0));
        let fused_first = fused_rem.total_cmp(&single_rem).is_ge();
        let split = LayerSplit { fused_share, single_share, rounds, extra, fused_first };
        counts.clear();
        counts.extend((0..n).map(|i| {
            let (share, rank) = match (i < fused, fused_first) {
                (true, true) => (fused_share, i),
                (true, false) => (fused_share, n - fused + i),
                (false, true) => (single_share, i),
                (false, false) => (single_share, i - fused),
            };
            share + rounds + usize::from(rank < extra) + 1
        }));
        Ok(split)
    }

    /// The per-stage cost kernel: `alloc[i] · t_layer(tp_i) + handoff(i)`
    /// for every stage `i` of one `pass`, summed and maximised. This is the
    /// only place a stage's cost is written out; simulator, runner and
    /// baselines differ only in how they aggregate it.
    ///
    /// A stage's term depends only on its `(tp, intra-node link, layers)`
    /// class, so each class's term is computed once and kept in a fixed
    /// array of `STAGE_CLASSES` (4) entries; stages of classes beyond it are
    /// computed directly. Stages are fused-TP first, then singles, so the
    /// layer time is looked up once per distinct TP degree. The lookups
    /// are pure and the terms are still summed in stage order, so the
    /// result is bit-identical to a per-stage scan.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Profile`] if a stage's TP degree was not
    /// profiled or the operating point is out of range.
    pub fn stage_times(
        &self,
        profile: &LayerProfile,
        alloc: &[usize],
        pass: Pass,
    ) -> Result<StageTimes, SimError> {
        self.stage_times_by(profile, alloc, pass, |tp| pass.layer_time(profile, tp))
    }

    /// [`stage_times`](Self::stage_times) with the layer time of each TP
    /// degree at `pass` taken from `layer_time`, which must return what
    /// `pass.layer_time(profile, tp)` returns: the estimators pass layer
    /// times they already looked up at the same operating point.
    pub(crate) fn stage_times_by(
        &self,
        profile: &LayerProfile,
        alloc: &[usize],
        pass: Pass,
        mut layer_time: impl FnMut(usize) -> Result<Secs, ProfileError>,
    ) -> Result<StageTimes, SimError> {
        debug_assert_eq!(alloc.len(), self.stages.len(), "one allocation per stage");
        let mut times = StageTimes::default();
        let mut layer: Option<(usize, Secs)> = None;
        let mut classes = [((0, false, 0), Secs::ZERO); STAGE_CLASSES];
        let mut n_classes = 0;
        for ((stage, intra), &layers) in self.stages.iter().zip(self.intra_node_links()).zip(alloc)
        {
            let class = (stage.tp, intra, layers);
            let t = match classes[..n_classes].iter().find(|(c, _)| *c == class) {
                Some(&(_, t)) => t,
                None => {
                    let t_layer = match layer {
                        Some((tp, t)) if tp == stage.tp => t,
                        _ => {
                            let t = layer_time(stage.tp)?;
                            layer = Some((stage.tp, t));
                            t
                        }
                    };
                    let t = pass.stage_cost(profile, t_layer, layers, intra);
                    if let Some(slot) = classes.get_mut(n_classes) {
                        *slot = (class, t);
                        n_classes += 1;
                    }
                    t
                }
            };
            times.sum += t;
            times.bottleneck = times.bottleneck.max(t);
        }
        Ok(times)
    }

    /// KV-cache bytes of one cached token on the bottleneck decode GPU:
    /// the most decoder layers one TP rank of `model` holds under
    /// `dec_alloc`.
    pub fn kv_bytes_per_token(&self, dec_alloc: &[usize], model: &ModelConfig) -> Bytes {
        let worst = dec_alloc
            .iter()
            .zip(&self.stages)
            .map(|(&l, s)| lossless_f64(l) / lossless_f64(s.tp))
            .fold(0.0f64, f64::max);
        Bytes::new(lossless_f64(model.kv_bytes_per_token_per_layer()) * worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exegpt_cluster::ClusterSpec;
    use exegpt_profiler::{ProfileOptions, Profiler};

    #[test]
    fn no_tp_is_one_stage_per_gpu() {
        let l = PipelineLayout::build(4, TpConfig::none(), 1.0, 8).expect("valid");
        assert_eq!(l.num_stages(), 4);
        assert!(l.stages().iter().all(|s| s.tp == 1 && s.gpus == 1));
        assert_eq!(l.total_gpus(), 4);
    }

    #[test]
    fn partial_tp_reduces_stage_count() {
        // 8 GPUs, TP=2 on 4 of them: 2 fused stages + 4 singles = 6 stages.
        let l = PipelineLayout::build(8, TpConfig { degree: 2, gpus: 4 }, 1.8, 8).expect("valid");
        assert_eq!(l.num_stages(), 6);
        assert_eq!(l.total_gpus(), 8);
        assert_eq!(l.stages()[0].tp, 2);
        assert_eq!(l.stages()[2].tp, 1);
    }

    #[test]
    fn full_tp_is_single_stage() {
        let l = PipelineLayout::build(4, TpConfig::full(4, 4), 3.2, 8).expect("valid");
        assert_eq!(l.num_stages(), 1);
    }

    #[test]
    fn rejects_bad_tp() {
        assert!(PipelineLayout::build(0, TpConfig::none(), 1.0, 8).is_err());
        assert!(PipelineLayout::build(8, TpConfig { degree: 2, gpus: 3 }, 1.5, 8).is_err());
        assert!(PipelineLayout::build(4, TpConfig { degree: 2, gpus: 8 }, 1.5, 8).is_err());
        assert!(PipelineLayout::build(4, TpConfig { degree: 2, gpus: 2 }, 0.0, 8).is_err());
    }

    #[test]
    fn layer_allocation_is_exact_and_positive() {
        let l = PipelineLayout::build(8, TpConfig { degree: 4, gpus: 4 }, 3.0, 8).expect("valid");
        // 1 fused stage (speed 3) + 4 singles = 5 stages.
        let alloc = l.allocate_layers(40).expect("enough layers");
        assert_eq!(alloc.iter().sum::<usize>(), 40);
        assert!(alloc.iter().all(|&c| c >= 1));
        // The fused stage gets roughly 3x the layers of a single stage.
        assert!(alloc[0] > 2 * alloc[1]);
    }

    #[test]
    fn too_few_layers_is_an_error() {
        let l = PipelineLayout::build(8, TpConfig::none(), 1.0, 8).expect("valid");
        assert!(l.allocate_layers(7).is_err());
        assert!(l.allocate_layers(8).is_ok());
    }

    #[test]
    fn boundary_node_detection() {
        let l = PipelineLayout::build(16, TpConfig::none(), 1.0, 8).expect("valid");
        assert!(l.boundary_intra_node(0));
        assert!(l.boundary_intra_node(6));
        assert!(!l.boundary_intra_node(7), "gpu7 -> gpu8 crosses nodes");
        assert!(l.boundary_intra_node(15), "past the end counts as intra");
    }

    #[test]
    fn even_split_when_speeds_equal() {
        let l = PipelineLayout::build(4, TpConfig::none(), 1.0, 8).expect("valid");
        assert_eq!(l.allocate_layers(40).expect("fits"), vec![10, 10, 10, 10]);
        let alloc = l.allocate_layers(42).expect("fits");
        assert_eq!(alloc.iter().sum::<usize>(), 42);
        assert!(alloc.iter().all(|&c| c == 10 || c == 11));
    }

    /// The reference: every stage looks its layer time up and pays its
    /// handoff, in pipeline order.
    fn naive_scan(
        profile: &LayerProfile,
        layout: &PipelineLayout,
        alloc: &[usize],
        pass: Pass,
    ) -> (u64, u64) {
        let (mut sum, mut worst) = (Secs::ZERO, Secs::ZERO);
        for (i, stage) in layout.stages().iter().enumerate() {
            let (t_layer, tokens) = match pass {
                Pass::Encode { batch, seq } => (
                    profile.encode_layer_time(batch, seq, stage.tp).expect("profiled"),
                    batch * seq,
                ),
                Pass::Decode { batch, ctx, input_len } => (
                    profile.decode_layer_time(batch, ctx, input_len, stage.tp).expect("profiled"),
                    batch,
                ),
            };
            let handoff = profile.handoff_time(tokens, layout.boundary_intra_node(i));
            let t = alloc[i] as f64 * t_layer + handoff;
            sum += t;
            worst = worst.max(t);
        }
        (sum.as_secs().to_bits(), worst.as_secs().to_bits())
    }

    #[test]
    fn stage_kernel_matches_a_naive_scan_bit_for_bit() {
        let model = exegpt_model::ModelConfig::opt_13b();
        let cluster = ClusterSpec::a40_cluster().subcluster(16).expect("fits");
        let profile = Profiler::new(model, cluster).run(&ProfileOptions::default()).expect("ok");
        // (TP setting, GPUs per node): partial TP whose fused and single
        // stages cross node boundaries, full pipelines, a fused-only one,
        // and ones with more (tp, link, layers) classes than the kernel's
        // class array holds, whose extra stages take the per-stage path.
        let layouts = [
            (TpConfig::none(), 8),
            (TpConfig::none(), 3),
            (TpConfig { degree: 2, gpus: 6 }, 8),
            (TpConfig { degree: 2, gpus: 6 }, 4),
            (TpConfig { degree: 4, gpus: 12 }, 6),
            (TpConfig { degree: 8, gpus: 8 }, 8),
            (TpConfig { degree: 4, gpus: 16 }, 8),
            (TpConfig { degree: 2, gpus: 6 }, 3),
        ];
        let (mut crossings, mut most_classes) = (0, 0);
        for (tp, per_node) in layouts {
            let layout = PipelineLayout::build(16, tp, 1.7, per_node).expect("valid");
            crossings +=
                (0..layout.num_stages()).filter(|&i| !layout.boundary_intra_node(i)).count();
            for layers in [40, 53] {
                let alloc = layout.allocate_layers(layers).expect("fits");
                let mut classes: Vec<_> = (0..layout.num_stages())
                    .map(|i| (layout.stages()[i].tp, layout.boundary_intra_node(i), alloc[i]))
                    .collect();
                classes.sort_unstable();
                classes.dedup();
                most_classes = most_classes.max(classes.len());
                for batch in [1.0, 2.5, 16.0, 61.0] {
                    let passes = [
                        Pass::Encode { batch, seq: 37.0 },
                        Pass::Encode { batch, seq: 256.5 },
                        Pass::Decode { batch, ctx: 50.0, input_len: 128.0 },
                        Pass::Decode { batch, ctx: 300.5, input_len: 17.0 },
                    ];
                    for pass in passes {
                        let got = layout.stage_times(&profile, &alloc, pass).expect("profiled");
                        let got = (got.sum.as_secs().to_bits(), got.bottleneck.as_secs().to_bits());
                        assert_eq!(
                            got,
                            naive_scan(&profile, &layout, &alloc, pass),
                            "{tp:?} {pass:?}"
                        );
                    }
                }
            }
        }
        assert!(crossings >= 5, "layouts must hand off across nodes ({crossings})");
        assert!(
            most_classes > STAGE_CLASSES,
            "a layout must overflow the class array ({most_classes} classes)"
        );
    }
}
