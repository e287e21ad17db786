//! The profiling sweep (paper §3, XProfiler).

use std::collections::BTreeMap;
#[expect(
    clippy::disallowed_types,
    reason = "the profile cache is a leaf shared map guarded by one lock; no lock ordering, \
              no iteration-order dependence"
)]
use std::sync::Mutex;
use std::sync::{Arc, OnceLock};

use exegpt_cluster::{ClusterSpec, CostModel};
use exegpt_model::{KernelCost, LayerKind, ModelConfig, ModelKind};
use exegpt_units::{Bytes, BytesPerSec};

use crate::error::ProfileError;
use crate::grid::{Axis, Line, Surface};
use crate::profile::{LayerProfile, TpTables};

/// Sweep ranges for a profiling run.
///
/// Defaults cover the paper's operating points (batches to 4096, sequences
/// to 8192) with log-spaced sample points; the cost model is smooth between
/// them, so interpolation error stays small.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOptions {
    /// Largest batch size to sweep.
    pub max_batch: usize,
    /// Largest sequence/context length to sweep.
    pub max_seq: usize,
    /// Effective bandwidth of the GPU↔CPU staging path used for WAA
    /// KV-cache handover.
    pub staging_bandwidth: BytesPerSec,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        Self {
            max_batch: 4096,
            max_seq: 8192,
            staging_bandwidth: BytesPerSec::from_gb_per_sec(20.0),
        }
    }
}

/// XProfiler: sweeps single-layer execution times on the simulated cluster.
///
/// See the crate docs for the substitution rationale; the sweep structure
/// (attention over batch×seq, rest over input size, per TP degree, plus
/// sync overheads) matches §3 of the paper.
#[derive(Debug, Clone)]
pub struct Profiler {
    model: ModelConfig,
    cluster: ClusterSpec,
}

impl Profiler {
    /// Creates a profiler for a (model, cluster) pair.
    pub fn new(model: ModelConfig, cluster: ClusterSpec) -> Self {
        Self { model, cluster }
    }

    /// Runs the sweep and returns the queryable profile.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError::InvalidAxis`] if the options produce a
    /// degenerate sweep (e.g. `max_batch == 0`), or name a `max_batch` or
    /// `max_seq` above 2^24, the cap of the tokens axis.
    pub fn run(&self, opts: &ProfileOptions) -> Result<LayerProfile, ProfileError> {
        if opts.max_batch == 0 || opts.max_seq == 0 {
            return Err(ProfileError::InvalidAxis {
                what: "options",
                why: "max_batch and max_seq must be non-zero",
            });
        }
        for (what, max) in [("max_batch", opts.max_batch), ("max_seq", opts.max_seq)] {
            if max > MAX_SWEEP {
                return Err(ProfileError::InvalidAxis { what, why: "must be at most 2^24" });
            }
        }
        let cost = CostModel::new(self.cluster.gpu().clone());
        let batches = Axis::new("batch", log2_axis(opts.max_batch))?;
        let seqs = Axis::new("seq", log2_axis(opts.max_seq))?;
        let tokens = Axis::new(
            "tokens",
            log2_axis(opts.max_batch.saturating_mul(opts.max_seq).min(MAX_SWEEP)),
        )?;

        let mut per_tp = BTreeMap::new();
        for tp in self.tp_degrees() {
            per_tp.insert(tp, self.sweep_degree(&cost, tp, &batches, &seqs, &tokens)?);
        }

        let d = self.model.d_model() as f64 * self.model.dtype_bytes() as f64;
        let handoff = |intra: bool| -> Result<Line, ProfileError> {
            let link = if intra { self.cluster.intra() } else { self.cluster.inter() };
            let ys =
                tokens.xs().iter().map(|&t| link.p2p_time(Bytes::new(t * d)).as_secs()).collect();
            Line::new(&tokens, ys)
        };

        let kv_bytes = self.model.kv_bytes_per_token_per_layer() as f64;
        // GPU -> CPU -> GPU: the staging path is traversed twice.
        let kv_transfer_per_token_layer = Bytes::new(2.0 * kv_bytes) / opts.staging_bandwidth;

        Ok(LayerProfile {
            model_name: self.model.name().to_string(),
            cluster_name: self.cluster.name().to_string(),
            handoff_intra: handoff(true)?,
            handoff_inter: handoff(false)?,
            batch: batches,
            seq: seqs,
            tokens,
            per_tp,
            kv_transfer_per_token_layer,
            max_batch: opts.max_batch,
            max_seq: opts.max_seq,
        })
    }

    /// The tensor-parallel degrees worth sweeping: powers of two that divide
    /// the head count and fit in one node (partial TP groups are intra-node,
    /// where the fast link lives).
    pub fn tp_degrees(&self) -> Vec<usize> {
        let cap =
            self.cluster.gpus_per_node().min(self.cluster.total_gpus()).min(self.model.num_heads());
        let mut degs = Vec::new();
        let mut d = 1;
        while d <= cap {
            if self.model.num_heads().is_multiple_of(d) {
                degs.push(d);
            }
            d *= 2;
        }
        degs
    }

    fn sweep_degree(
        &self,
        cost: &CostModel,
        tp: usize,
        batch_axis: &Axis,
        seq_axis: &Axis,
        tokens_axis: &Axis,
    ) -> Result<TpTables, ProfileError> {
        let (batches, seqs, tokens) = (batch_axis.xs(), seq_axis.xs(), tokens_axis.xs());
        let m = &self.model;
        let inv = 1.0 / tp as f64;
        let link = self.cluster.intra();
        let d_bytes = m.d_model() as f64 * m.dtype_bytes() as f64;
        // Encoding runs on encoder layers for encoder–decoder models, and on
        // the (only) decoder layers for decoder-only models.
        let enc_kind = match m.kind() {
            ModelKind::EncoderDecoder => LayerKind::Encoder,
            ModelKind::DecoderOnly => LayerKind::Decoder,
        };
        let _ = enc_kind; // shape is identical for both encode cost paths

        let measure = |c: KernelCost| cost.kernel_time(c.scaled(inv)).as_secs();

        let enc_attn = Surface::new(
            batch_axis,
            seq_axis,
            batches
                .iter()
                .map(|&b| {
                    seqs.iter()
                        .map(|&s| measure(m.encode_attention_cost(b as usize, s as usize)))
                        .collect()
                })
                .collect(),
        )?;
        let enc_rest = Line::new(
            tokens_axis,
            tokens.iter().map(|&t| measure(m.encode_rest_cost(1, t as usize))).collect(),
        )?;
        let enc_sync = Line::new(
            tokens_axis,
            tokens
                .iter()
                .map(|&t| (link.allreduce_time(Bytes::new(t * d_bytes), tp) * 2.0).as_secs())
                .collect(),
        )?;

        let dec_attn = Surface::new(
            batch_axis,
            seq_axis,
            batches
                .iter()
                .map(|&b| {
                    seqs.iter()
                        .map(|&c| {
                            measure(m.decode_attention_cost(
                                LayerKind::Decoder,
                                b as usize,
                                c as usize,
                                0,
                            ))
                        })
                        .collect()
                })
                .collect(),
        )?;
        let dec_cross = if m.kind() == ModelKind::EncoderDecoder {
            let da = m.d_attn() as f64;
            let dt = m.dtype_bytes() as f64;
            Some(Surface::new(
                batch_axis,
                seq_axis,
                batches
                    .iter()
                    .map(|&b| {
                        seqs.iter()
                            .map(|&s_in| {
                                measure(KernelCost {
                                    flops: 4.0 * b * s_in * da,
                                    bytes: 2.0 * b * s_in * da * dt,
                                })
                            })
                            .collect()
                    })
                    .collect(),
            )?)
        } else {
            None
        };
        let dec_rest = Line::new(
            batch_axis,
            batches
                .iter()
                .map(|&b| {
                    let base = m.decode_rest_cost(b as usize);
                    let cross = m.cross_projection_cost(LayerKind::Decoder, b as usize);
                    measure(base.and(cross))
                })
                .collect(),
        )?;
        let dec_sync = Line::new(
            batch_axis,
            batches
                .iter()
                .map(|&b| (link.allreduce_time(Bytes::new(b * d_bytes), tp) * 3.0).as_secs())
                .collect(),
        )?;

        Ok(TpTables { enc_attn, enc_rest, enc_sync, dec_attn, dec_cross, dec_rest, dec_sync })
    }
}

/// The largest `max_batch` or `max_seq` a sweep accepts, and the cap of the
/// tokens axis: 2^24, far above any operating point, and low enough that
/// [`log2_axis`] never doubles past `usize`.
const MAX_SWEEP: usize = 1 << 24;

/// Log2-spaced axis `1, 2, 4, …` up to and including (a point at) `max`.
fn log2_axis(max: usize) -> Vec<f64> {
    let mut xs = Vec::new();
    let mut v = 1usize;
    while v < max {
        xs.push(v as f64);
        v *= 2;
    }
    xs.push(max as f64);
    xs
}

/// A concurrency-safe cache of profiles keyed by (model, cluster), each
/// swept with [`ProfileOptions::default`], mirroring the paper's
/// once-per-deployment profiling step. Benchmarks and the scheduler's
/// parallel search share profiles through this cache.
#[derive(Debug, Default)]
pub struct ProfileCache {
    #[expect(
        clippy::disallowed_types,
        reason = "single coarse lock around a BTreeMap; callers never hold it across profiling \
                  work, so results are order-independent"
    )]
    entries: Mutex<BTreeMap<(String, String), Arc<LayerProfile>>>,
}

impl ProfileCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache: every caller in a process that profiles the
    /// same (model, cluster) pair shares one profiling pass.
    pub fn global() -> &'static Self {
        static CACHE: OnceLock<ProfileCache> = OnceLock::new();
        CACHE.get_or_init(Self::new)
    }

    /// Returns the cached profile for `(model, cluster)`, running the sweep
    /// with the default options on a miss.
    ///
    /// # Errors
    ///
    /// Propagates profiling errors from [`Profiler::run`].
    pub fn get_or_profile(
        &self,
        model: &ModelConfig,
        cluster: &ClusterSpec,
    ) -> Result<Arc<LayerProfile>, ProfileError> {
        let key =
            (model.name().to_string(), format!("{}/{}gpus", cluster.name(), cluster.total_gpus()));
        // The lock guards no invariant a panicking holder could break: the
        // map only ever gains finished profiles.
        if let Some(hit) = self.entries.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            return Ok(Arc::clone(hit));
        }
        let profile = Arc::new(
            Profiler::new(model.clone(), cluster.clone()).run(&ProfileOptions::default())?,
        );
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).insert(key, Arc::clone(&profile));
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(model: ModelConfig, gpus: usize) -> LayerProfile {
        let cluster = ClusterSpec::a40_cluster().subcluster(gpus).expect("fits");
        Profiler::new(model, cluster).run(&ProfileOptions::default()).expect("profiling succeeds")
    }

    #[test]
    fn log2_axis_covers_range() {
        assert_eq!(log2_axis(8), vec![1.0, 2.0, 4.0, 8.0]);
        assert_eq!(log2_axis(10), vec![1.0, 2.0, 4.0, 8.0, 10.0]);
        assert_eq!(log2_axis(1), vec![1.0]);
    }

    #[test]
    fn tp_degrees_divide_heads_and_fit_node() {
        let p = Profiler::new(ModelConfig::opt_13b(), ClusterSpec::a40_cluster());
        assert_eq!(p.tp_degrees(), vec![1, 2, 4, 8]);
        let four = Profiler::new(
            ModelConfig::opt_13b(),
            ClusterSpec::a40_cluster().subcluster(4).expect("fits"),
        );
        assert_eq!(four.tp_degrees(), vec![1, 2, 4]);
    }

    #[test]
    fn encode_time_grows_with_batch_and_seq() {
        let p = profile(ModelConfig::opt_13b(), 4);
        let t1 = p.encode_layer_time(4.0, 128.0, 1).expect("profiled");
        let t2 = p.encode_layer_time(8.0, 128.0, 1).expect("profiled");
        let t3 = p.encode_layer_time(8.0, 256.0, 1).expect("profiled");
        assert!(t1 < t2 && t2 < t3);
    }

    #[test]
    fn tensor_parallelism_speeds_up_large_kernels() {
        let p = profile(ModelConfig::gpt3_39b(), 8);
        let t1 = p.encode_layer_time(32.0, 256.0, 1).expect("profiled");
        let t4 = p.encode_layer_time(32.0, 256.0, 4).expect("profiled");
        assert!(t4 < t1, "tp=4 {t4} should beat tp=1 {t1} on a big encode");
    }

    #[test]
    fn tensor_parallelism_is_not_a_free_lunch() {
        // TP=8 legitimately cuts batch-1 decode latency (weight streaming is
        // split 8 ways), but aggregate GPU-time must go *up*: sync overhead
        // and lost efficiency make 8 x t8 clearly exceed t1. This is the
        // latency/throughput trade the paper's partial-TP variable exposes.
        let p = profile(ModelConfig::opt_13b(), 8);
        let t1 = p.decode_layer_time(1.0, 64.0, 0.0, 1).expect("profiled");
        let t8 = p.decode_layer_time(1.0, 64.0, 0.0, 8).expect("profiled");
        assert!(t8 < t1, "tp=8 should reduce single-iteration latency");
        assert!(t8 * 8.0 > t1 * 1.2, "tp=8 should cost aggregate efficiency");
    }

    #[test]
    fn decode_time_grows_with_context() {
        let p = profile(ModelConfig::opt_13b(), 4);
        let short = p.decode_layer_time(32.0, 64.0, 0.0, 1).expect("profiled");
        let long = p.decode_layer_time(32.0, 1024.0, 0.0, 1).expect("profiled");
        assert!(long > short);
    }

    #[test]
    fn unprofiled_degree_is_an_error() {
        let p = profile(ModelConfig::opt_13b(), 4);
        let err = p.decode_layer_time(8.0, 64.0, 0.0, 3).expect_err("3 does not divide 40 evenly");
        assert!(matches!(err, ProfileError::UnprofiledTpDegree { requested: 3, .. }));
    }

    #[test]
    fn t5_profile_has_cross_attention() {
        let p = profile(ModelConfig::t5_11b(), 8);
        let no_cross = p.decode_layer_time(16.0, 32.0, 0.0, 1).expect("profiled");
        let with_cross = p.decode_layer_time(16.0, 32.0, 512.0, 1).expect("profiled");
        assert!(with_cross > no_cross);
    }

    #[test]
    fn handoff_inter_node_is_slower() {
        let p = profile(ModelConfig::gpt3_39b(), 16);
        assert!(p.handoff_time(4096.0, false) > p.handoff_time(4096.0, true));
    }

    #[test]
    fn kv_transfer_scales_with_tokens_and_layers() {
        let p = profile(ModelConfig::opt_13b(), 4);
        let t = p.kv_transfer_time(1000.0, 40);
        assert!((p.kv_transfer_time(2000.0, 40) - t * 2.0).as_secs().abs() < 1e-12);
        assert!((p.kv_transfer_time(1000.0, 80) - t * 2.0).as_secs().abs() < 1e-12);
    }

    #[test]
    fn cache_returns_same_instance() {
        let cache = ProfileCache::new();
        let model = ModelConfig::opt_13b();
        let cluster = ClusterSpec::a40_cluster().subcluster(4).expect("fits");
        let a = cache.get_or_profile(&model, &cluster).expect("profiles");
        let b = cache.get_or_profile(&model, &cluster).expect("cached");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn degenerate_options_are_rejected() {
        let p = Profiler::new(ModelConfig::opt_13b(), ClusterSpec::a40_cluster());
        let bad = ProfileOptions { max_batch: 0, ..ProfileOptions::default() };
        assert!(p.run(&bad).is_err());
    }

    #[test]
    fn huge_sweep_bounds_are_rejected() {
        // A bound above 2^63 once doubled the axis past `usize`: an
        // overflow panic in debug builds and an endless loop in release.
        let p = Profiler::new(ModelConfig::opt_13b(), ClusterSpec::a40_cluster());
        for (max_batch, max_seq, what) in [
            ((1 << 24) + 1, 8192, "max_batch"),
            (4096, (1 << 24) + 1, "max_seq"),
            (usize::MAX, 8192, "max_batch"),
            (4096, (1 << 63) + 1, "max_seq"),
        ] {
            let opts = ProfileOptions { max_batch, max_seq, ..ProfileOptions::default() };
            let err = p.run(&opts).expect_err("bound above 2^24");
            assert!(matches!(err, ProfileError::InvalidAxis { what: w, .. } if w == what), "{err}");
        }
        let at_cap = ProfileOptions { max_batch: 1 << 24, max_seq: 1, ..ProfileOptions::default() };
        assert_eq!(p.run(&at_cap).expect("the cap is allowed").max_batch(), 1 << 24);
    }
}
