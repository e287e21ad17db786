//! The PP×TP grid every baseline runs on, and what the four systems share
//! on it: stage timing, the out-of-memory check, the KV tracker, the
//! request stack and the batch sweep.

use exegpt_model::MemoryFootprint;
use exegpt_runner::{KvTracker, ReservePolicy, RunError, RunOptions};
use exegpt_sim::{
    Breakdown, Estimate, MemoryReport, Pass, PipelineLayout, RraPlan, SimError, Simulator, TpConfig,
};
use exegpt_units::Secs;
use exegpt_workload::{Request, RequestStream};

/// The paper's baseline layout (§7.1): maximum tensor parallelism within a
/// node, pipeline parallelism across nodes.
///
/// The plan is an [`RraPlan`]: like an RRA plan, every stage holds a slice
/// of both passes, one shared allocation for decoder-only models and
/// encoder and decoder slices for T5-style models (as FasterTransformer
/// partitions them).
#[derive(Debug, Clone)]
pub(crate) struct Grid {
    sim: Simulator,
    plan: RraPlan,
    /// Parameter bytes on the bottleneck GPU.
    params: u64,
    /// KV bytes per cached token on the bottleneck decode GPU.
    kv_per_token: f64,
}

impl Grid {
    /// Builds the paper's layout on `sim`'s cluster: the largest profiled
    /// TP degree that fits in a node and divides the GPU count (1 if none).
    pub(crate) fn new(sim: Simulator) -> Result<Self, SimError> {
        let (n, per_node) = (sim.cluster().total_gpus(), sim.cluster().gpus_per_node());
        let tp = sim
            .profile()
            .tp_degrees()
            .into_iter()
            .filter(|&d| d <= per_node && n.is_multiple_of(d))
            .max()
            .unwrap_or(1);
        let cfg = if tp == 1 { TpConfig::none() } else { TpConfig { degree: tp, gpus: n } };
        // Uniform grid: every stage is a TP group, so relative speeds are
        // equal and the speedup value only needs to be positive.
        let layout = PipelineLayout::build(n, cfg, 1.0, per_node)?;
        let plan = RraPlan::allocate(&sim, layout)?;
        let dec_only = sim.enc_layers_total() == sim.model().num_layers();
        let params = plan
            .enc_alloc
            .iter()
            .zip(&plan.dec_alloc)
            .zip(plan.layout.stages())
            .map(|((&e, &d), s)| {
                let bytes = if dec_only {
                    d as u64 * sim.dec_layer_bytes()
                } else {
                    e as u64 * sim.enc_layer_bytes() + d as u64 * sim.dec_layer_bytes()
                };
                bytes / s.tp as u64
            })
            .max()
            .unwrap_or(0);
        let kv_per_token = plan.layout.kv_bytes_per_token(&plan.dec_alloc, sim.model()).as_f64();
        Ok(Self { sim, plan, params, kv_per_token })
    }

    pub(crate) fn sim(&self) -> &Simulator {
        &self.sim
    }

    pub(crate) fn stages(&self) -> usize {
        self.plan.layout.num_stages()
    }

    /// Bottleneck stage time of encoding `batch` queries of `seq` tokens.
    pub(crate) fn encode(&self, batch: f64, seq: f64) -> Result<Secs, SimError> {
        let pass = Pass::Encode { batch, seq };
        Ok(self.plan.layout.stage_times(self.sim.profile(), &self.plan.enc_alloc, pass)?.bottleneck)
    }

    /// Bottleneck stage time of one decoding iteration of a `micro`-query
    /// micro-batch at mean context `ctx`, over the workload's mean input.
    pub(crate) fn decode(&self, micro: f64, ctx: f64) -> Result<Secs, SimError> {
        let input_len = self.sim.workload().input().mean();
        let pass = Pass::Decode { batch: micro, ctx, input_len };
        Ok(self.plan.layout.stage_times(self.sim.profile(), &self.plan.dec_alloc, pass)?.bottleneck)
    }

    /// The bottleneck GPU's memory for `batch` queries whose KV cache is
    /// reserved under `policy`: input plus maximum output up front, or the
    /// mean context held (rounded up to whole pages when paged).
    pub(crate) fn reserve(
        &self,
        batch: usize,
        policy: ReservePolicy,
    ) -> Result<MemoryReport, SimError> {
        if batch == 0 {
            return Err(SimError::InvalidConfig { what: "batch", why: "must be >= 1".into() });
        }
        let w = self.sim.workload();
        let per_query_tokens = match policy {
            ReservePolicy::UpFront => w.input().mean() + w.output().max_len() as f64,
            ReservePolicy::Incremental => self.sim.kv_ctx_tokens().as_f64(),
            ReservePolicy::Paged { page_tokens } => {
                let held = self.sim.kv_ctx_tokens().as_f64();
                (held / page_tokens as f64).ceil() * page_tokens as f64
            }
        };
        let kv_bytes = (batch as f64 * per_query_tokens * self.kv_per_token) as u64;
        let (needed, capacity) = (self.params + kv_bytes, self.sim.usable_capacity());
        if needed > capacity {
            return Err(SimError::OutOfMemory { role: "worker", needed, capacity });
        }
        let footprint = MemoryFootprint { param_bytes: self.params, kv_bytes, activation_bytes: 0 };
        Ok(MemoryReport { encoder_gpu: footprint, decoder_gpu: footprint, capacity })
    }

    /// The estimate of `batch` queries holding `memory`: one period (a
    /// static batch, or one iteration) of `[encode, decode, period]` time.
    pub(crate) fn estimate(
        &self,
        batch: usize,
        memory: MemoryReport,
        latency: Secs,
        throughput: f64,
        [encode_time, decode_time, period]: [Secs; 3],
    ) -> Estimate {
        let stages = self.stages();
        let breakdown = Breakdown { encode_time, decode_time, period, stages, decode_batch: batch };
        Estimate { latency, throughput, memory, breakdown }
    }

    /// A KV tracker over the bottleneck GPU's memory left after parameters.
    pub(crate) fn kv(&self, policy: ReservePolicy) -> KvTracker {
        let capacity = self.sim.usable_capacity().saturating_sub(self.params);
        KvTracker::new(self.kv_per_token, capacity, policy)
    }

    /// Parameter bytes on the bottleneck GPU.
    pub(crate) fn params(&self) -> u64 {
        self.params
    }

    /// The queries of a closed-loop replay, the next one on top.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InvalidOptions`] for invalid options.
    pub(crate) fn pending(&self, opts: &RunOptions) -> Result<Vec<Request>, RunError> {
        opts.validate()?;
        let workload = opts.request_workload.as_ref().unwrap_or(self.sim.workload());
        let mut pending: Vec<Request> =
            RequestStream::new(workload, opts.seed).take(opts.num_queries).collect();
        pending.reverse();
        Ok(pending)
    }

    /// The batch sizes of [`batch_sweep`] up to the profiled maximum.
    pub(crate) fn batches(&self) -> impl Iterator<Item = usize> {
        batch_sweep(self.sim.profile().max_batch())
    }

    /// The highest-throughput batch of [`batches`](Self::batches) whose
    /// estimated latency meets `bound` (the earliest on a tie). The sweep
    /// stops at the first batch `estimate` rejects: a larger one needs more
    /// memory still.
    pub(crate) fn best_batch(
        &self,
        bound: Secs,
        estimate: impl Fn(usize) -> Result<Estimate, SimError>,
    ) -> Option<(usize, Estimate)> {
        let mut best: Option<(usize, Estimate)> = None;
        for b in self.batches() {
            let Ok(est) = estimate(b) else { break };
            if est.latency <= bound
                && best.as_ref().is_none_or(|(_, e)| est.throughput > e.throughput)
            {
                best = Some((b, est));
            }
        }
        best
    }
}

/// Batch sizes the paper sweeps: multiples of four from the minimum up
/// (§7.1, "minimum to maximum batch sizes in multiples of four").
fn batch_sweep(max: usize) -> impl Iterator<Item = usize> {
    (1..).map(|i| i * 4).take_while(move |&b| b <= max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exegpt_cluster::ClusterSpec;
    use exegpt_model::ModelConfig;
    use exegpt_profiler::{ProfileOptions, Profiler};
    use exegpt_workload::Task;
    use std::sync::Arc;

    fn grid(gpus: usize) -> Grid {
        let model = ModelConfig::opt_13b();
        let cluster = ClusterSpec::a40_cluster().subcluster(gpus).expect("fits");
        let profile = Profiler::new(model.clone(), cluster.clone())
            .run(&ProfileOptions::default())
            .expect("profiles");
        let sim = Simulator::new(
            model,
            cluster,
            Arc::new(profile),
            Task::Translation.workload().unwrap(),
        );
        Grid::new(sim).expect("valid")
    }

    #[test]
    fn grid_maximizes_intra_node_tp() {
        let g = grid(4);
        assert_eq!((g.plan.layout.stages()[0].tp, g.stages()), (4, 1));
        let g = grid(16);
        assert_eq!((g.plan.layout.stages()[0].tp, g.stages()), (8, 2));
    }

    #[test]
    fn grid_covers_all_layers() {
        let g = grid(16);
        assert_eq!(g.plan.dec_alloc.iter().sum::<usize>(), 40);
        assert_eq!(g.plan.enc_alloc, g.plan.dec_alloc, "decoder-only shares one allocation");
    }

    #[test]
    fn batch_sweep_is_multiples_of_four() {
        let v: Vec<usize> = batch_sweep(17).collect();
        assert_eq!(v, vec![4, 8, 12, 16]);
    }
}
