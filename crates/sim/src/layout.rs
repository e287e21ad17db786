//! Pipeline layout: mapping GPUs to stages under partial tensor parallelism,
//! and the one per-stage cost kernel every timing model shares.

use exegpt_dist::convert::{lossless_f64, trunc_usize};
use exegpt_model::ModelConfig;
use exegpt_profiler::{LayerProfile, ProfileError};
use exegpt_units::{Bytes, Secs};
use serde::{Deserialize, Serialize};

use crate::config::TpConfig;
use crate::error::SimError;

/// One pipeline stage: a single GPU or a fused tensor-parallel group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// The pipeline structure induced by a GPU count and a partial-TP setting
/// (paper Figure 4d): `tp.gpus / tp.degree` fused stages followed by
/// `n_gpus − tp.gpus` single-GPU stages.
///
/// Layers are allocated to stages proportionally to measured stage speed so
/// that stage times balance; [`PipelineLayout::allocate_layers`] performs
/// the integer split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        if n_gpus == 0 {
            return Err(SimError::InvalidConfig {
                what: "n_gpus",
                why: "pipeline needs at least one gpu".to_string(),
            });
        }
        let mut stages = Vec::new();
        let mut next_gpu = 0usize;
        if !tp.is_none() {
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
            for _ in 0..tp.gpus / tp.degree {
                stages.push(Stage {
                    tp: tp.degree,
                    first_gpu: next_gpu,
                    gpus: tp.degree,
                    speed: tp_speedup,
                });
                next_gpu += tp.degree;
            }
        }
        while next_gpu < n_gpus {
            stages.push(Stage { tp: 1, first_gpu: next_gpu, gpus: 1, speed: 1.0 });
            next_gpu += 1;
        }
        Ok(Self { stages, gpus_per_node: gpus_per_node.max(1) })
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

    /// Splits `total_layers` across stages proportionally to stage speed
    /// (largest-remainder rounding, every stage at least one layer).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if there are fewer layers than
    /// stages.
    pub fn allocate_layers(&self, total_layers: usize) -> Result<Vec<usize>, SimError> {
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
        let ideal: Vec<f64> =
            self.stages.iter().map(|s| lossless_f64(spare) * s.speed / speed_sum).collect();
        let mut counts: Vec<usize> = ideal.iter().map(|&x| trunc_usize(x)).collect();
        let mut assigned: usize = counts.iter().sum();
        // Largest remainders get the leftover layers.
        let mut rema: Vec<(usize, f64)> =
            ideal.iter().enumerate().map(|(i, &x)| (i, x - x.floor())).collect();
        rema.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut k = 0;
        while assigned < spare {
            counts[rema[k % n].0] += 1;
            assigned += 1;
            k += 1;
        }
        for c in &mut counts {
            *c += 1;
        }
        Ok(counts)
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
        debug_assert_eq!(alloc.len(), self.stages.len(), "one allocation per stage");
        let mut times = StageTimes::default();
        let mut layer: Option<(usize, Secs)> = None;
        let mut classes = [((0, false, 0), Secs::ZERO); STAGE_CLASSES];
        let mut n_classes = 0;
        for (i, (stage, &layers)) in self.stages.iter().zip(alloc).enumerate() {
            let class = (stage.tp, self.boundary_intra_node(i), layers);
            let t = match classes[..n_classes].iter().find(|(c, _)| *c == class) {
                Some(&(_, t)) => t,
                None => {
                    let t_layer = match layer {
                        Some((tp, t)) if tp == stage.tp => t,
                        _ => {
                            let t = pass.layer_time(profile, stage.tp)?;
                            layer = Some((stage.tp, t));
                            t
                        }
                    };
                    let t = pass.stage_cost(profile, t_layer, layers, class.1);
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
