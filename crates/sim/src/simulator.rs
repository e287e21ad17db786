//! The simulator facade and shared helpers.

use std::sync::Arc;

use exegpt_cluster::ClusterSpec;
use exegpt_dist::convert::{lossless_f64, trunc_u64};
use exegpt_model::{LayerKind, ModelConfig, ModelKind};
use exegpt_profiler::LayerProfile;
use exegpt_units::Tokens;

use crate::cache::{EvalCache, EvalCacheStats, SearchOutcome};
use crate::config::{RraConfig, ScheduleConfig, TpConfig, WaaConfig, Workload};
use crate::error::SimError;
use crate::estimate::{Estimate, Perf};
use crate::layout::{LayerTimes, Pass};
use crate::scorer::Scorer;

/// Fraction of device memory usable by the schedule (the rest is reserved
/// for workspace buffers, fragmentation and the framework, as in real
/// deployments).
pub(crate) const WORKSPACE_FACTOR: f64 = 0.92;

/// Headroom multiplier on the expected steady-state KV pool, covering the
/// transient peaks between early-termination compactions.
pub(crate) const KV_HEADROOM: f64 = 1.25;

/// XSimulator: estimates throughput, latency and memory of a schedule
/// configuration from profiled layer times (paper §3, §6).
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Simulator {
    model: ModelConfig,
    cluster: ClusterSpec,
    profile: Arc<LayerProfile>,
    workload: Workload,
    /// Memoized completion analyses, decode stage grids and search
    /// outcomes (not scores, estimates or pipeline plans: see the `cache`
    /// module docs). Valid for this exact (model, profile, workload) tuple,
    /// so it is shared by `clone()` *and* [`with_cluster`] (searches carry
    /// `cluster_key` in their keys) but replaced by [`with_workload`].
    ///
    /// [`with_workload`]: Simulator::with_workload
    /// [`with_cluster`]: Simulator::with_cluster
    cache: Arc<EvalCache>,
    /// `cluster.fingerprint()`, precomputed: the cache key component that
    /// scopes cluster-dependent entries to this topology.
    cluster_key: u64,
    /// `workload.l99()`, precomputed: a binary search of the output CDF
    /// that every estimate's latency reads.
    l99: usize,
}

impl Simulator {
    /// Creates a simulator for a (model, cluster, profile, workload) tuple.
    pub fn new(
        model: ModelConfig,
        cluster: ClusterSpec,
        profile: Arc<LayerProfile>,
        workload: Workload,
    ) -> Self {
        let cluster_key = cluster.fingerprint();
        let l99 = workload.l99();
        let cache = Arc::new(EvalCache::default());
        Self { model, cluster, profile, workload, cache, cluster_key, l99 }
    }

    /// The simulated model.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The layer profile driving all time estimates.
    pub fn profile(&self) -> &Arc<LayerProfile> {
        &self.profile
    }

    /// The sequence-length workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Returns a simulator for the same system under a different workload
    /// (used by the distribution-shift experiments, Figure 11).
    pub fn with_workload(&self, workload: Workload) -> Self {
        // A fresh cache, not the shared one: every cached value depends on
        // the workload's length distributions.
        let l99 = workload.l99();
        Self { workload, cache: Arc::new(EvalCache::default()), l99, ..self.clone() }
    }

    /// Returns a simulator for the same model and workload on a different
    /// cluster (used for fault-degraded topologies). The layer profile is
    /// reused: it is valid as long as the new cluster's device and link
    /// *types* match the profiled ones, which holds for subclusters and
    /// degraded variants of the original.
    ///
    /// The evaluation cache is *shared*, not flushed: the cluster-dependent
    /// entries, searches, are keyed by the cluster's
    /// [`fingerprint`](ClusterSpec::fingerprint), so a swap keeps the
    /// cluster-independent completion analyses and decode grids warm, and a
    /// later swap back to the original topology (fault recovery) finds the
    /// searches it ran there remembered.
    pub fn with_cluster(&self, cluster: ClusterSpec) -> Self {
        let cluster_key = cluster.fingerprint();
        Self { cluster, cache: Arc::clone(&self.cache), cluster_key, ..self.clone() }
    }

    /// Point-in-time counters of the shared evaluation cache: search-memo
    /// hits and misses, and distinct entries across all layers.
    pub fn cache_stats(&self) -> EvalCacheStats {
        self.cache.stats()
    }

    /// [`Workload::l99`] of this simulator's workload.
    pub(crate) fn l99(&self) -> usize {
        self.l99
    }

    /// The evaluation cache shared by everything this simulator (and its
    /// clones) computes for the current workload.
    pub(crate) fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// A [`Scorer`] over this simulator: the estimator every evaluation
    /// goes through. A caller that evaluates many configurations keeps one
    /// (a search keeps one per worker thread), so its handles into the
    /// evaluation cache and its plan buffers stay warm.
    pub fn scorer(&self) -> Scorer<'_> {
        Scorer::new(self)
    }

    /// Evaluates either schedule family, on a fresh [`Scorer`].
    ///
    /// Not memoized: each call computes the whole estimate afresh, over the
    /// cache's completion analyses and decode stage grids, and leaves the
    /// hit/miss counters alone. A caller that evaluates many configurations
    /// keeps a [`Simulator::scorer`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is invalid, does not fit in
    /// memory, or cannot reach a steady state.
    pub fn evaluate(&self, cfg: &ScheduleConfig) -> Result<Estimate, SimError> {
        self.scorer().evaluate(cfg)
    }

    /// Evaluates an RRA schedule (see [`RraConfig`]), on a fresh
    /// [`Scorer`].
    ///
    /// # Errors
    ///
    /// See [`Simulator::evaluate`].
    pub fn evaluate_rra(&self, cfg: &RraConfig) -> Result<Estimate, SimError> {
        self.scorer().evaluate_rra(cfg)
    }

    /// Evaluates a WAA schedule (see [`WaaConfig`]), on a fresh
    /// [`Scorer`].
    ///
    /// # Errors
    ///
    /// See [`Simulator::evaluate`].
    pub fn evaluate_waa(&self, cfg: &WaaConfig) -> Result<Estimate, SimError> {
        self.scorer().evaluate_waa(cfg)
    }

    /// The [`Perf`] of a configuration: [`Simulator::evaluate`]'s latency
    /// and throughput, bit for bit, or [`Perf::INFEASIBLE`] where it errs,
    /// on a fresh [`Scorer`]. Not memoized: a search scores its points on
    /// its workers' scorers, and a search that repeats is remembered whole,
    /// by [`Simulator::remembered_search`].
    pub fn score(&self, cfg: &ScheduleConfig) -> Perf {
        self.scorer().score(cfg)
    }

    /// The outcome of the search that `options` encodes, on this
    /// simulator's cluster: remembered, with `true`, if the shared cache
    /// holds one for this cluster fingerprint and these exact words;
    /// otherwise `search()`'s outcome, with `false`, which is then
    /// remembered. `options` must encode, injectively, every input of
    /// `search` beyond this simulator's (model, cluster, profile, workload):
    /// keys compare word for word, never by hash alone. Counted in
    /// [`Simulator::cache_stats`].
    pub fn remembered_search(
        &self,
        options: Vec<u64>,
        search: impl FnOnce() -> SearchOutcome,
    ) -> (SearchOutcome, bool) {
        self.cache.search((self.cluster_key, options), search)
    }

    /// Resolves the pipeline plan (layout + per-stage layer allocations) of
    /// an RRA configuration whose decode pool size is `b_d` (as returned in
    /// [`Estimate`](crate::Estimate)`::breakdown.decode_batch`). The runner
    /// uses the same plan the simulator timed: the evaluation builds it with
    /// the same function, in its scorer's buffers, which keep it while the
    /// layer split repeats. Each call builds one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for structurally invalid
    /// configurations.
    pub fn rra_plan(&self, cfg: &RraConfig, b_d: usize) -> Result<crate::rra::RraPlan, SimError> {
        crate::rra::plan(self, cfg, b_d)
    }

    /// Resolves the group split and pipeline plans of a WAA configuration,
    /// with the function the evaluation builds it with in place. Each
    /// call builds the plan.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for structurally invalid
    /// configurations.
    pub fn waa_plan(&self, cfg: &WaaConfig) -> Result<crate::waa::WaaPlan, SimError> {
        crate::waa::plan(self, cfg)
    }

    /// Usable per-GPU memory in bytes (device capacity minus the workspace
    /// reserve).
    pub fn usable_capacity(&self) -> u64 {
        trunc_u64(lossless_f64(self.cluster.gpu().mem_bytes()) * WORKSPACE_FACTOR)
    }

    /// Expected per-query KV context accounted per decode-pool slot,
    /// including the compaction headroom.
    pub fn kv_ctx_tokens(&self) -> Tokens {
        self.workload.mean_decode_context() * KV_HEADROOM
    }

    /// Measured speedup of a fused TP stage over a single GPU at this
    /// schedule's operating point (blend of encode and decode work).
    /// Dimensionless ratio, hence crate-private under the unit-safety policy.
    /// The layer times it looks up land in `times`, for the passes the
    /// estimate then times at the same points.
    ///
    /// # Errors
    ///
    /// Propagates profile-lookup failures (unprofiled degree).
    pub(crate) fn tp_speedup(
        &self,
        tp: TpConfig,
        enc_batch: f64,
        dec_batch: f64,
        times: &mut LayerTimes,
    ) -> Result<f64, SimError> {
        if tp.is_none() {
            return Ok(1.0);
        }
        let s_e = self.workload.input().mean();
        let ctx = self.workload.mean_decode_context().as_f64();
        let p = &self.profile;
        let enc = Pass::Encode { batch: enc_batch, seq: s_e };
        let dec = Pass::Decode { batch: dec_batch, ctx, input_len: s_e };
        let e1 = times.get(p, enc, 1)?;
        let ed = times.get(p, enc, tp.degree)?;
        let d1 = times.get(p, dec, 1)?;
        let dd = times.get(p, dec, tp.degree)?;
        Ok(((e1 + d1) / (ed + dd)).max(0.05))
    }

    /// Parameter bytes of one layer used for encoding work.
    pub fn enc_layer_bytes(&self) -> u64 {
        let kind = match self.model.kind() {
            ModelKind::EncoderDecoder => LayerKind::Encoder,
            ModelKind::DecoderOnly => LayerKind::Decoder,
        };
        self.model.layer_run_param_bytes(kind, 1)
    }

    /// Parameter bytes of one decoder layer.
    pub fn dec_layer_bytes(&self) -> u64 {
        self.model.layer_run_param_bytes(LayerKind::Decoder, 1)
    }

    /// Number of layers traversed during the encoding phase.
    pub fn enc_layers_total(&self) -> usize {
        match self.model.kind() {
            ModelKind::EncoderDecoder => self.model.num_encoder_layers(),
            ModelKind::DecoderOnly => self.model.num_layers(),
        }
    }

    /// Number of layers traversed per decoding iteration.
    pub fn dec_layers_total(&self) -> usize {
        self.model.num_decoder_layers()
    }
}
