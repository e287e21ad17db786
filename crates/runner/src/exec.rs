//! Reusable phase/KV execution machinery.
//!
//! [`PhaseExecutor`] encapsulates everything timing-related about running
//! one concrete schedule on the simulated cluster: the pipeline plan, the
//! KV-accounting parameters of the bottleneck GPU, and the per-phase /
//! per-iteration time formulas. The offline replays ([`Runner`]) and the
//! online serving loop (`exegpt-serve`) both drive it, so a schedule is
//! timed identically whether it is replayed over a pre-drawn batch or
//! served against a live arrival stream — and a plan swap mid-serve is just
//! constructing a new executor at a phase boundary.
//!
//! [`Runner`]: crate::Runner

use exegpt::DynamicAdjuster;
use exegpt_sim::{
    Estimate, RraConfig, RraPlan, ScheduleConfig, SimError, Simulator, WaaConfig, WaaPlan,
};
use exegpt_units::{Bytes, Secs};

use crate::error::RunError;
use crate::kv::{KvTracker, ReservePolicy};

/// Exposed fraction of the WAA KV handover (matches the simulator's overlap
/// assumption).
pub(crate) const KV_TRANSFER_EXPOSED: f64 = 0.3;

/// Timing of one encoding phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeTiming {
    /// Virtual time the phase occupies (RRA: micro-batched pipeline
    /// fill-and-drain; WAA: the encoder pipeline period).
    pub total: Secs,
    /// Bottleneck-stage execution time (the Table 7 variance series).
    pub bottleneck: Secs,
    /// Input tokens entering the pipeline (drives the WAA KV handover).
    pub tokens: f64,
}

/// Timing of one decoding iteration over the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeTiming {
    /// Virtual time the iteration occupies.
    pub total: Secs,
    /// Bottleneck-stage execution time.
    pub bottleneck: Secs,
}

#[derive(Debug, Clone)]
enum Variant {
    Rra { cfg: RraConfig, plan: RraPlan, stages: usize, scheduled_b_d: usize },
    Waa { cfg: WaaConfig, plan: WaaPlan, stages_d: usize },
}

/// The phase/KV machinery of one schedule on one simulated deployment.
///
/// Construction validates the schedule (feasibility, memory) through the
/// simulator exactly as scheduling did; the executor then answers pure
/// timing queries and hands out correctly parameterized [`KvTracker`]s and
/// [`DynamicAdjuster`]s.
#[derive(Debug, Clone)]
pub struct PhaseExecutor {
    sim: Simulator,
    variant: Variant,
    estimate: Estimate,
    bytes_per_token: f64,
    kv_capacity: u64,
}

impl PhaseExecutor {
    /// Builds the executor for `schedule` on `sim`'s deployment.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Schedule`] when the schedule is invalid or
    /// infeasible on this deployment.
    pub fn new(sim: &Simulator, schedule: &ScheduleConfig) -> Result<Self, RunError> {
        let (variant, estimate) = match schedule {
            ScheduleConfig::Rra(cfg) => {
                let estimate = sim.evaluate_rra(cfg)?;
                let scheduled_b_d = estimate.breakdown.decode_batch;
                let plan = sim.rra_plan(cfg, scheduled_b_d)?;
                let stages = plan.layout.num_stages();
                (Variant::Rra { cfg: *cfg, plan, stages, scheduled_b_d }, estimate)
            }
            ScheduleConfig::Waa(cfg) => {
                let estimate = sim.evaluate_waa(cfg)?;
                let plan = sim.waa_plan(cfg)?;
                let stages_d = plan.dec_layout.num_stages();
                (Variant::Waa { cfg: *cfg, plan, stages_d }, estimate)
            }
        };

        // KV accounting on the bottleneck decode GPU (most decode layers
        // per TP rank).
        let worst_layers = match &variant {
            Variant::Rra { plan, .. } => plan
                .dec_alloc
                .iter()
                .zip(plan.layout.stages())
                .map(|(&l, s)| l as f64 / s.tp as f64)
                .fold(0.0f64, f64::max),
            Variant::Waa { plan, .. } => plan
                .dec_alloc
                .iter()
                .zip(plan.dec_layout.stages())
                .map(|(&l, s)| l as f64 / s.tp as f64)
                .fold(0.0f64, f64::max),
        };
        let bytes_per_token = sim.model().kv_bytes_per_token_per_layer() as f64 * worst_layers;
        let kv_capacity = sim
            .usable_capacity()
            .saturating_sub(estimate.memory.decoder_gpu.param_bytes)
            .saturating_sub(estimate.memory.decoder_gpu.activation_bytes);

        Ok(Self { sim: sim.clone(), variant, estimate, bytes_per_token, kv_capacity })
    }

    /// The simulator (deployment + workload) this executor times against.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// The schedule this executor runs.
    pub fn schedule(&self) -> ScheduleConfig {
        match &self.variant {
            Variant::Rra { cfg, .. } => ScheduleConfig::Rra(*cfg),
            Variant::Waa { cfg, .. } => ScheduleConfig::Waa(*cfg),
        }
    }

    /// The simulator's estimate for the schedule.
    pub fn estimate(&self) -> &Estimate {
        &self.estimate
    }

    /// The scheduled steady-state decoding batch `B_D`.
    pub fn scheduled_decode_batch(&self) -> usize {
        match &self.variant {
            Variant::Rra { scheduled_b_d, .. } => *scheduled_b_d,
            Variant::Waa { plan, .. } => plan.b_d,
        }
    }

    /// Decoding iterations per encoding opportunity: `N_D` for RRA, 1 for
    /// WAA (one pool iteration per coupled round).
    pub fn decode_iters_per_phase(&self) -> usize {
        match &self.variant {
            Variant::Rra { cfg, .. } => cfg.n_d,
            Variant::Waa { .. } => 1,
        }
    }

    /// Whether encode and decode run as coupled pipelines (WAA): a round
    /// takes `max(encode, decode, handover)` instead of their sum.
    pub fn is_coupled(&self) -> bool {
        matches!(self.variant, Variant::Waa { .. })
    }

    /// Micro-batch parallelism of a decoding iteration over a pool of
    /// `pool_len` queries.
    pub fn decode_parallelism(&self, pool_len: usize) -> usize {
        match &self.variant {
            Variant::Rra { stages, .. } => (*stages).min(pool_len).max(1),
            Variant::Waa { cfg, .. } => cfg.b_m.min(pool_len).max(1),
        }
    }

    /// A fresh incremental-policy [`KvTracker`] sized for this plan's
    /// bottleneck GPU.
    pub fn kv_tracker(&self) -> KvTracker {
        KvTracker::new(self.bytes_per_token, self.kv_capacity, ReservePolicy::Incremental)
    }

    /// Parameter bytes resident on the bottleneck decode GPU.
    pub fn param_bytes(&self) -> u64 {
        self.estimate.memory.decoder_gpu.param_bytes
    }

    /// The §5.2 dynamic workload adjuster for this schedule.
    pub fn adjuster(&self, threshold_frac: f64) -> DynamicAdjuster {
        let b_e = match &self.variant {
            Variant::Rra { cfg, .. } => cfg.b_e,
            Variant::Waa { cfg, .. } => cfg.b_e,
        };
        DynamicAdjuster::new(b_e, self.sim.workload().input().mean(), threshold_frac)
    }

    /// Times one encoding phase admitting queries of the given input
    /// lengths (must be non-empty).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Schedule`] when the batch falls outside the
    /// profiled range.
    pub fn encode_timing(&self, input_lens: &[usize]) -> Result<EncodeTiming, RunError> {
        debug_assert!(!input_lens.is_empty(), "encode phases admit at least one query");
        let profile = self.sim.profile();
        let mean_in: f64 =
            input_lens.iter().map(|&l| l as f64).sum::<f64>() / input_lens.len() as f64;
        match &self.variant {
            Variant::Rra { plan, stages, .. } => {
                let m_e = (*stages).min(input_lens.len()).max(1);
                let micro = input_lens.len() as f64 / m_e as f64;
                // Single in-order pass (no per-phase buffer): the sum folds
                // left over the stages exactly as the buffered version did,
                // so the timings are bit-identical.
                let mut bottleneck = Secs::ZERO;
                let mut fill = Secs::ZERO;
                for (i, stage) in plan.layout.stages().iter().enumerate() {
                    let t_layer = profile
                        .encode_layer_time(micro, mean_in, stage.tp)
                        .map_err(SimError::from)?;
                    let handoff =
                        profile.handoff_time(micro * mean_in, plan.layout.boundary_intra_node(i));
                    let t = plan.enc_alloc[i] as f64 * t_layer + handoff;
                    fill += t;
                    bottleneck = bottleneck.max(t);
                }
                let total = fill + bottleneck * (m_e as f64 - 1.0);
                Ok(EncodeTiming { total, bottleneck, tokens: input_lens.len() as f64 * mean_in })
            }
            Variant::Waa { plan, .. } => {
                // Every encoder stage runs the whole batch untensored, so
                // the per-layer time is the same for all of them.
                let t_layer = profile
                    .encode_layer_time(input_lens.len() as f64, mean_in, 1)
                    .map_err(SimError::from)?;
                let mut bottleneck = Secs::ZERO;
                for i in 0..plan.enc_layout.num_stages() {
                    let handoff = profile.handoff_time(
                        input_lens.len() as f64 * mean_in,
                        plan.enc_layout.boundary_intra_node(i),
                    );
                    bottleneck = bottleneck.max(plan.enc_alloc[i] as f64 * t_layer + handoff);
                }
                Ok(EncodeTiming {
                    total: bottleneck,
                    bottleneck,
                    tokens: input_lens.len() as f64 * mean_in,
                })
            }
        }
    }

    /// Times one decoding iteration: `parallelism` from
    /// [`decode_parallelism`](Self::decode_parallelism) (held fixed across
    /// a phase, as the replays do), `active` queries in the pool, average
    /// context length `mean_ctx`, and whether this iteration pays the
    /// pipeline fill (first iteration of an RRA decoding phase).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Schedule`] when the pool falls outside the
    /// profiled range.
    pub fn decode_timing(
        &self,
        parallelism: usize,
        active: usize,
        mean_ctx: f64,
        pipeline_fill: bool,
    ) -> Result<DecodeTiming, RunError> {
        let profile = self.sim.profile();
        let mean_input = self.sim.workload().input().mean();
        match &self.variant {
            Variant::Rra { plan, stages, .. } => {
                let micro = active as f64 / parallelism as f64;
                let mut worst = Secs::ZERO;
                for (i, stage) in plan.layout.stages().iter().enumerate() {
                    let t_layer = profile
                        .decode_layer_time(micro, mean_ctx, mean_input, stage.tp)
                        .map_err(SimError::from)?;
                    let handoff = profile.handoff_time(micro, plan.layout.boundary_intra_node(i));
                    worst = worst.max(plan.dec_alloc[i] as f64 * t_layer + handoff);
                }
                let mut total = parallelism as f64 * worst;
                if pipeline_fill {
                    total += (*stages as f64 - 1.0) * worst;
                }
                Ok(DecodeTiming { total, bottleneck: worst })
            }
            Variant::Waa { plan, stages_d, .. } => {
                let micro = active as f64 / parallelism as f64;
                let mut worst = Secs::ZERO;
                for (i, stage) in plan.dec_layout.stages().iter().enumerate() {
                    let t_layer = profile
                        .decode_layer_time(micro, mean_ctx, mean_input, stage.tp)
                        .map_err(SimError::from)?;
                    let handoff =
                        profile.handoff_time(micro, plan.dec_layout.boundary_intra_node(i));
                    worst = worst.max(plan.dec_alloc[i] as f64 * t_layer + handoff);
                }
                Ok(DecodeTiming {
                    total: parallelism.max(*stages_d) as f64 * worst,
                    bottleneck: worst,
                })
            }
        }
    }

    /// Exposed KV-handover time of a WAA round moving `enc_tokens` input
    /// tokens from the encode to the decode group (0 for RRA, which shares
    /// GPUs between phases).
    pub fn handover_time(&self, enc_tokens: f64) -> Secs {
        match &self.variant {
            Variant::Rra { .. } => Secs::ZERO,
            Variant::Waa { plan, .. } => {
                self.sim.profile().kv_transfer_time(enc_tokens, plan.kv_layers)
                    * KV_TRANSFER_EXPOSED
            }
        }
    }

    /// Time to re-migrate `kv_bytes` of resident KV cache across the
    /// cluster after a plan swap onto a changed topology (failover or
    /// recovery). The cache moves point-to-point over the slower of the
    /// two link classes — a deliberately conservative single-stream bound:
    /// unlike the per-phase WAA handover, a failover migration is not
    /// overlapped with compute.
    pub fn kv_migration_time(&self, kv_bytes: u64) -> Secs {
        if kv_bytes == 0 {
            return Secs::ZERO;
        }
        let bytes = Bytes::from_u64(kv_bytes);
        let cluster = self.sim.cluster();
        let intra = cluster.intra().p2p_time(bytes);
        let inter =
            if cluster.num_nodes() > 1 { cluster.inter().p2p_time(bytes) } else { Secs::ZERO };
        intra.max(inter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, OnceLock};

    use exegpt_cluster::ClusterSpec;
    use exegpt_model::ModelConfig;
    use exegpt_profiler::{LayerProfile, ProfileOptions, Profiler};
    use exegpt_sim::{TpConfig, WaaVariant};
    use exegpt_workload::Task;

    fn sim() -> Simulator {
        static PROFILE: OnceLock<Arc<LayerProfile>> = OnceLock::new();
        let model = ModelConfig::opt_13b();
        let cluster = ClusterSpec::a40_cluster().subcluster(4).expect("fits");
        let profile = PROFILE
            .get_or_init(|| {
                Arc::new(
                    Profiler::new(model.clone(), cluster.clone())
                        .run(&ProfileOptions::default())
                        .expect("profiles"),
                )
            })
            .clone();
        Simulator::new(model, cluster, profile, Task::Translation.workload().expect("valid"))
    }

    #[test]
    fn rra_executor_reports_schedule_shape() {
        let sim = sim();
        let cfg = ScheduleConfig::Rra(RraConfig::new(8, 16, TpConfig::none()));
        let exec = PhaseExecutor::new(&sim, &cfg).expect("feasible");
        assert_eq!(exec.decode_iters_per_phase(), 16);
        assert!(!exec.is_coupled());
        assert!(exec.scheduled_decode_batch() > 0);
        assert_eq!(exec.schedule(), cfg);
        assert_eq!(exec.handover_time(1024.0), Secs::ZERO, "RRA has no group handover");
        let kv = exec.kv_tracker();
        assert!(kv.capacity_bytes() > 0);
    }

    #[test]
    fn timings_are_positive_and_fill_costs_extra() {
        let sim = sim();
        let cfg = ScheduleConfig::Rra(RraConfig::new(8, 16, TpConfig::none()));
        let exec = PhaseExecutor::new(&sim, &cfg).expect("feasible");
        let enc = exec.encode_timing(&[128; 8]).expect("in range");
        assert!(enc.total >= enc.bottleneck && enc.bottleneck > Secs::ZERO);
        let m_d = exec.decode_parallelism(32);
        let fill = exec.decode_timing(m_d, 32, 140.0, true).expect("in range");
        let steady = exec.decode_timing(m_d, 32, 140.0, false).expect("in range");
        assert!(fill.total > steady.total, "pipeline fill adds time");
        assert_eq!(fill.bottleneck, steady.bottleneck);
    }

    #[test]
    fn waa_executor_is_coupled_with_handover() {
        let sim = sim();
        let cfg = ScheduleConfig::Waa(WaaConfig::new(2, 1, TpConfig::none(), WaaVariant::Compute));
        let exec = PhaseExecutor::new(&sim, &cfg).expect("feasible");
        assert!(exec.is_coupled());
        assert_eq!(exec.decode_iters_per_phase(), 1);
        assert!(exec.handover_time(1024.0) > Secs::ZERO);
        let enc = exec.encode_timing(&[128; 2]).expect("in range");
        assert_eq!(enc.total, enc.bottleneck, "WAA encode is one pipeline period");
    }
}
