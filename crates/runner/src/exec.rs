//! Reusable phase/KV execution machinery.
//!
//! [`PhaseExecutor`] encapsulates everything timing-related about running
//! one concrete schedule on the simulated cluster: the pipeline plan, the
//! KV-accounting parameters of the bottleneck GPU, and the per-phase /
//! per-iteration time formulas. Only [`ReplicaState::run_phase`] composes
//! these into phases, for the offline replay and the online serving loop
//! (`exegpt-serve`) alike, so a schedule is timed identically whether it is
//! replayed over a pre-drawn batch or served against a live arrival stream
//! — and a plan swap mid-serve is [`ReplicaState::install`] of a new
//! executor at a phase boundary.
//!
//! [`ReplicaState::run_phase`]: crate::ReplicaState::run_phase
//! [`ReplicaState::install`]: crate::ReplicaState::install

use exegpt::DynamicAdjuster;
use exegpt_sim::waa::KV_TRANSFER_EXPOSED;
use exegpt_sim::{
    Estimate, Pass, PipelineLayout, RraConfig, RraPlan, ScheduleConfig, Simulator, WaaConfig,
    WaaPlan,
};
use exegpt_units::{Bytes, Secs};

use crate::error::RunError;
use crate::kv::{KvTracker, ReservePolicy};

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
    Rra { cfg: RraConfig, plan: RraPlan, scheduled_b_d: usize },
    Waa { cfg: WaaConfig, plan: WaaPlan },
}

impl Variant {
    /// The decoding pipeline and its per-stage layers.
    fn decode_pass(&self) -> (&PipelineLayout, &[usize]) {
        match self {
            Variant::Rra { plan, .. } => (&plan.layout, &plan.dec_alloc),
            Variant::Waa { plan, .. } => (&plan.dec_layout, &plan.dec_alloc),
        }
    }
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
                (Variant::Rra { cfg: *cfg, plan, scheduled_b_d }, estimate)
            }
            ScheduleConfig::Waa(cfg) => {
                let estimate = sim.evaluate_waa(cfg)?;
                let plan = sim.waa_plan(cfg)?;
                (Variant::Waa { cfg: *cfg, plan }, estimate)
            }
        };

        let (layout, dec_alloc) = variant.decode_pass();
        let bytes_per_token = layout.kv_bytes_per_token(dec_alloc, sim.model()).as_f64();
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
    pub(crate) fn decode_iters_per_phase(&self) -> usize {
        match &self.variant {
            Variant::Rra { cfg, .. } => cfg.n_d,
            Variant::Waa { .. } => 1,
        }
    }

    /// Whether encode and decode run as coupled pipelines (WAA): a round
    /// takes `max(encode, decode, handover)` instead of their sum.
    pub(crate) fn is_coupled(&self) -> bool {
        matches!(self.variant, Variant::Waa { .. })
    }

    /// Micro-batch parallelism of a decoding iteration over a pool of
    /// `pool_len` queries.
    pub fn decode_parallelism(&self, pool_len: usize) -> usize {
        match &self.variant {
            Variant::Rra { plan, .. } => plan.layout.num_stages().min(pool_len).max(1),
            Variant::Waa { cfg, .. } => cfg.b_m.min(pool_len).max(1),
        }
    }

    /// The longest output length the plan's workload can draw.
    pub(crate) fn longest_output(&self) -> usize {
        self.sim.workload().output().max_len()
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
        let n = input_lens.len();
        let mean_in: f64 = input_lens.iter().map(|&l| l as f64).sum::<f64>() / n as f64;
        // RRA splits the phase into one micro-batch per stage; the WAA
        // encoder pipeline takes the whole batch at once.
        let (layout, alloc, m_e) = match &self.variant {
            Variant::Rra { plan, .. } => {
                (&plan.layout, &plan.enc_alloc, plan.layout.num_stages().min(n).max(1))
            }
            Variant::Waa { plan, .. } => (&plan.enc_layout, &plan.enc_alloc, 1),
        };
        let pass = Pass::Encode { batch: n as f64 / m_e as f64, seq: mean_in };
        let times = layout.stage_times(self.sim.profile(), alloc, pass)?;
        let total = match self.variant {
            // Pipeline fill and drain.
            Variant::Rra { .. } => times.sum + times.bottleneck * (m_e as f64 - 1.0),
            // One encoder pipeline period.
            Variant::Waa { .. } => times.bottleneck,
        };
        Ok(EncodeTiming { total, bottleneck: times.bottleneck, tokens: n as f64 * mean_in })
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
        let (layout, alloc) = self.variant.decode_pass();
        let pass = Pass::Decode {
            batch: active as f64 / parallelism as f64,
            ctx: mean_ctx,
            input_len: self.sim.workload().input().mean(),
        };
        let worst = layout.stage_times(self.sim.profile(), alloc, pass)?.bottleneck;
        let stages = layout.num_stages();
        let total = match self.variant {
            // Micro-batches circulate; the phase's first iteration also
            // fills the pipeline.
            Variant::Rra { .. } if pipeline_fill => {
                parallelism as f64 * worst + (stages as f64 - 1.0) * worst
            }
            Variant::Rra { .. } => parallelism as f64 * worst,
            // Ring occupancy or traversal, whichever is longer.
            Variant::Waa { .. } => parallelism.max(stages) as f64 * worst,
        };
        Ok(DecodeTiming { total, bottleneck: worst })
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
