//! FasterTransformer: the paper's primary baseline (§2, §7).
//!
//! Static batching on a PP×TP grid. A batch is prefilled once (with encode
//! micro-batching, the DSI technique FT adopted), then decoded with a
//! *fixed* batch size until the batch's longest output finishes — no early
//! termination, so completed queries keep consuming compute (the white
//! boxes in the paper's Figure 1). KV-cache space is reserved up-front for
//! the maximum output length.

use exegpt_runner::{
    windowed_throughput, KvSlot, KvTracker, ReservePolicy, RunError, RunOptions, RunReport,
};
use exegpt_sim::{Breakdown, Estimate, MemoryReport, Pass, SimError, Simulator};
use exegpt_units::Secs;
use exegpt_workload::{Request, RequestStream};

use crate::common::{
    batch_sweep, best_batch, build_grid, paper_parallelism, param_bytes_per_gpu, GridPlan,
};

/// NVIDIA FasterTransformer executing with static batches.
#[derive(Debug, Clone)]
pub struct FasterTransformer {
    sim: Simulator,
    plan: GridPlan,
}

impl FasterTransformer {
    /// Creates FT with the paper's parallel configuration: maximum tensor
    /// parallelism within a node, pipeline parallelism across nodes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if no valid grid exists.
    pub fn paper_default(sim: Simulator) -> Result<Self, SimError> {
        let (tp, _) = paper_parallelism(&sim);
        Self::with_tensor_parallelism(sim, tp)
    }

    /// Creates FT with an explicit tensor-parallel degree (pipeline degree
    /// follows as `gpus / tp`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `tp` does not divide the GPU
    /// count or was not profiled.
    pub fn with_tensor_parallelism(sim: Simulator, tp: usize) -> Result<Self, SimError> {
        let plan = build_grid(&sim, tp)?;
        Ok(Self { sim, plan })
    }

    /// The underlying simulator context.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Closed-form estimate for a given static batch size.
    ///
    /// Latency is the full-batch completion time when generating the
    /// *maximum-length* output — the quantity the paper bounds for systems
    /// without early termination (§7.1). Throughput assumes back-to-back
    /// batches.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for infeasible batch sizes (out of memory).
    pub fn estimate(&self, batch: usize) -> Result<Estimate, SimError> {
        if batch == 0 {
            return Err(SimError::InvalidConfig { what: "batch", why: "must be >= 1".into() });
        }
        let w = self.sim.workload();
        let mean_in = w.input().mean();
        let s_max = w.output().max_len();
        let (profile, plan) = (self.sim.profile(), &self.plan);
        let stages = plan.layout.num_stages();

        // Memory: up-front reservation for input + max output.
        let kv_per_token =
            plan.layout.kv_bytes_per_token(&plan.dec_alloc, self.sim.model()).as_f64();
        let params = param_bytes_per_gpu(&self.sim, plan);
        let kv_needed = (batch as f64 * (mean_in + s_max as f64) * kv_per_token) as u64;
        let capacity = self.sim.usable_capacity();
        if params + kv_needed > capacity {
            return Err(SimError::OutOfMemory {
                role: "worker",
                needed: params + kv_needed,
                capacity,
            });
        }

        // Prefill with encode micro-batching (m_e = 2 per stage).
        let m_e = (2 * stages).min(batch).max(1);
        let enc = Pass::Encode { batch: batch as f64 / m_e as f64, seq: mean_in };
        let enc_stage = plan.layout.stage_times(profile, &plan.enc_alloc, enc)?.bottleneck;
        let t_prefill = enc_stage * (stages + m_e - 1) as f64;

        // Decode s_max iterations at constant batch; context grows.
        let m_d = stages.min(batch).max(1);
        let micro = batch as f64 / m_d as f64;
        let dec = |ctx| Pass::Decode { batch: micro, ctx, input_len: mean_in };
        let mut t_decode = Secs::ZERO;
        for u in 1..=s_max {
            let dec_stage =
                plan.layout.stage_times(profile, &plan.dec_alloc, dec(mean_in + u as f64))?;
            t_decode += m_d as f64 * dec_stage.bottleneck;
        }
        let fill = plan.layout.stage_times(profile, &plan.dec_alloc, dec(mean_in))?;
        t_decode += (stages as f64 - 1.0) * fill.bottleneck;

        let t_batch = t_prefill + t_decode;
        let footprint = exegpt_model::MemoryFootprint {
            param_bytes: params,
            kv_bytes: kv_needed,
            activation_bytes: 0,
        };
        Ok(Estimate {
            latency: t_batch,
            throughput: batch as f64 / t_batch.as_secs(),
            memory: MemoryReport { encoder_gpu: footprint, decoder_gpu: footprint, capacity },
            breakdown: Breakdown {
                encode_time: t_prefill,
                decode_time: t_decode,
                period: t_batch,
                stages,
                decode_batch: batch,
            },
        })
    }

    /// Sweeps batch sizes in multiples of four (§7.1) and returns the
    /// highest-throughput batch whose estimated latency meets `bound`.
    pub fn plan(&self, bound: Secs) -> Option<(usize, Estimate)> {
        best_batch(self.sim.profile().max_batch(), bound, |b| self.estimate(b))
    }

    /// The latency sweep the paper derives its four bounds from: estimated
    /// full-batch latencies over all feasible batch sizes.
    pub fn latency_sweep(&self) -> Vec<Secs> {
        batch_sweep(self.sim.profile().max_batch())
            .map_while(|b| self.estimate(b).ok().map(|e| e.latency))
            .collect()
    }

    /// Executes static batches of size `batch` over sampled queries.
    ///
    /// Every query's latency is its batch's full completion time (results
    /// return when the batch finishes; no early termination).
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] for infeasible configurations.
    pub fn run(&self, batch: usize, opts: &RunOptions) -> Result<RunReport, RunError> {
        self.estimate(batch)?; // feasibility gate
        let w = self.sim.workload();
        let (profile, plan) = (self.sim.profile(), &self.plan);
        let stages = plan.layout.num_stages();
        let s_dist_max = w.output().max_len();

        let kv_per_token =
            plan.layout.kv_bytes_per_token(&plan.dec_alloc, self.sim.model()).as_f64();
        let params = param_bytes_per_gpu(&self.sim, plan);
        let capacity = self.sim.usable_capacity().saturating_sub(params);
        let mut kv = KvTracker::new(kv_per_token, capacity, ReservePolicy::UpFront);

        let stream_workload = opts.request_workload.as_ref().unwrap_or(w);
        let mut pending: Vec<Request> =
            RequestStream::new(stream_workload, opts.seed).take(opts.num_queries).collect();
        pending.reverse();

        let mut t = 0.0f64;
        let mut latencies = Vec::with_capacity(opts.num_queries);
        let mut completions = Vec::with_capacity(opts.num_queries);
        let mut enc_stage_times = Vec::new();
        let mut dec_stage_times = Vec::new();
        let mut tokens: u64 = 0;
        let mut peak_kv = 0u64;

        while !pending.is_empty() {
            // Assemble the next static batch.
            let mut batch_reqs: Vec<(Request, KvSlot)> = Vec::with_capacity(batch);
            while batch_reqs.len() < batch {
                let Some(req) = pending.last().copied() else { break };
                let Some(slot) = kv.try_admit(req.id, req.input_len, s_dist_max) else { break };
                pending.pop();
                batch_reqs.push((req, slot));
            }
            if batch_reqs.is_empty() {
                return Err(RunError::Stalled {
                    why: "next query cannot fit in the kv cache".to_string(),
                });
            }
            peak_kv = peak_kv.max(kv.peak_bytes());
            let t_start = t;
            let b = batch_reqs.len();
            let mean_in: f64 =
                batch_reqs.iter().map(|(r, _)| r.input_len as f64).sum::<f64>() / b as f64;

            // Prefill.
            let m_e = (2 * stages).min(b).max(1);
            let enc = Pass::Encode { batch: b as f64 / m_e as f64, seq: mean_in };
            let enc_stage = plan.layout.stage_times(profile, &plan.enc_alloc, enc)?.bottleneck;
            enc_stage_times.push(enc_stage.as_secs());
            t += (enc_stage * (stages + m_e - 1) as f64).as_secs();

            // Decode to the batch's longest output with no early termination.
            let s_batch = batch_reqs.iter().map(|(r, _)| r.output_len).max().unwrap_or(0);
            let m_d = stages.min(b).max(1);
            let micro = b as f64 / m_d as f64;
            for u in 1..=s_batch {
                let ctx = mean_in + u as f64;
                let dec = Pass::Decode { batch: micro, ctx, input_len: w.input().mean() };
                let worst = plan.layout.stage_times(profile, &plan.dec_alloc, dec)?.bottleneck;
                dec_stage_times.push(worst.as_secs());
                t += (worst * m_d as f64).as_secs();
            }

            for (req, slot) in batch_reqs {
                tokens += req.output_len as u64;
                kv.release(slot);
                latencies.push(t - t_start);
                completions.push(t);
            }
        }

        let (throughput, makespan) = windowed_throughput(&mut completions, opts.warmup_frac);
        Ok(RunReport {
            completed: latencies.len(),
            tokens_generated: tokens,
            makespan: Secs::new(makespan),
            throughput,
            latencies,
            encoder_stage_times: enc_stage_times,
            decoder_stage_times: dec_stage_times,
            peak_kv_bytes: peak_kv.max(kv.peak_bytes()),
            // Up-front reservation never grows an entry, so nothing clamps.
            kv_clamped_tokens: 0,
            param_bytes: params,
            trace: None,
            sojourn_times: vec![],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exegpt_cluster::ClusterSpec;
    use exegpt_model::ModelConfig;
    use exegpt_profiler::{ProfileOptions, Profiler};
    use exegpt_workload::Task;
    use std::sync::Arc;

    fn ft(task: Task) -> FasterTransformer {
        let model = ModelConfig::opt_13b();
        let cluster = ClusterSpec::a40_cluster().subcluster(4).expect("fits");
        let profile = Profiler::new(model.clone(), cluster.clone())
            .run(&ProfileOptions::default())
            .expect("profiles");
        let sim =
            Simulator::new(model, cluster, Arc::new(profile), task.workload().expect("valid"));
        FasterTransformer::paper_default(sim).expect("valid grid")
    }

    #[test]
    fn uses_max_tp_within_a_node() {
        assert_eq!(ft(Task::Translation).plan.layout.stages()[0].tp, 4);
    }

    #[test]
    fn bigger_batches_trade_latency_for_throughput() {
        let ft = ft(Task::Translation);
        let a = ft.estimate(4).expect("feasible");
        let b = ft.estimate(32).expect("feasible");
        assert!(b.throughput > a.throughput);
        assert!(b.latency > a.latency);
    }

    #[test]
    fn plan_respects_the_bound() {
        let ft = ft(Task::Translation);
        let unbounded = ft.plan(Secs::INFINITY).expect("feasible");
        let sweep = ft.latency_sweep();
        let tight = exegpt_workload::latency_bounds(&sweep).expect("non-empty")[0];
        let bounded = ft.plan(tight).expect("feasible");
        assert!(bounded.1.latency <= tight);
        assert!(bounded.0 <= unbounded.0);
        assert!(bounded.1.throughput <= unbounded.1.throughput);
    }

    #[test]
    fn run_matches_estimate_roughly() {
        let ft = ft(Task::Translation);
        let est = ft.estimate(16).expect("feasible");
        let rep = ft.run(16, &RunOptions { num_queries: 200, ..Default::default() }).expect("runs");
        assert_eq!(rep.completed, 200);
        let ratio = rep.throughput / est.throughput;
        // The estimate decodes to the distribution max; sampled batches
        // usually finish earlier, so measured throughput is a bit higher.
        assert!((0.8..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn all_queries_in_a_batch_share_its_completion_time() {
        let ft = ft(Task::Summarization);
        let rep = ft.run(8, &RunOptions { num_queries: 16, ..Default::default() }).expect("runs");
        // Two batches of 8: exactly two distinct latencies per batch start.
        let mut unique: Vec<u64> = rep.latencies.iter().map(|l| l.to_bits()).collect();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() <= 4, "static batches should share completion times");
    }

    #[test]
    fn oom_batches_are_rejected() {
        let ft = ft(Task::ConversationalQa2);
        assert!(matches!(ft.estimate(4096), Err(SimError::OutOfMemory { .. })));
    }
}
