//! FasterTransformer and DeepSpeed-Inference: the paper's static-batch
//! baselines (§2, §7).
//!
//! Static batching on a PP×TP grid. A batch is prefilled once (with encode
//! micro-batching, the DSI technique FT adopted), then decoded with a
//! *fixed* batch size until the batch's longest output finishes — no early
//! termination, so completed queries keep consuming compute (the white
//! boxes in the paper's Figure 1). KV-cache space is reserved up-front for
//! the maximum output length.
//!
//! DeepSpeed-Inference shares this regime. Its public version supports
//! tensor parallelism only (§7.2), and its engine adds a small
//! per-iteration host cost that its custom small-batch GeMM kernels only
//! partly recover — calibrated so the Figure 7 ordering (FT above DSI)
//! reproduces, as the paper measures.

use exegpt_runner::{CompletionLog, KvSlot, ReservePolicy, RunError, RunOptions, RunReport};
use exegpt_sim::{Estimate, SimError, Simulator};
use exegpt_units::Secs;
use exegpt_workload::Request;

use crate::grid::Grid;

/// Per-iteration engine overhead of DSI's runtime relative to FT
/// (scheduler hop + kernel dispatch not hidden behind GPU work).
const DSI_HOST_OVERHEAD_S: f64 = 6e-4;

/// A static-batch system: NVIDIA FasterTransformer, or DeepSpeed-Inference.
#[derive(Debug, Clone)]
pub struct FasterTransformer {
    grid: Grid,
    /// Engine overhead per decoding iteration: 0 for FT.
    host_overhead_s: f64,
}

impl FasterTransformer {
    /// Creates FT with the paper's parallel configuration: maximum tensor
    /// parallelism within a node, pipeline parallelism across nodes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if no valid grid exists.
    pub fn paper_default(sim: Simulator) -> Result<Self, SimError> {
        Ok(Self { grid: Grid::new(sim)?, host_overhead_s: 0.0 })
    }

    /// Creates DeepSpeed-Inference: FT's regime with a per-iteration engine
    /// overhead. The public version runs tensor parallelism only, so the
    /// cluster must be a single node (as in the paper's §7.2 comparison on
    /// four A40s), where the paper's layout is pure tensor parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the cluster spans nodes or
    /// no valid grid exists.
    pub fn deepspeed(sim: Simulator) -> Result<Self, SimError> {
        if sim.cluster().num_nodes() > 1 {
            return Err(SimError::InvalidConfig {
                what: "cluster",
                why: "public DeepSpeed-Inference supports tensor parallelism only; \
                      use a single-node sub-cluster"
                    .into(),
            });
        }
        Ok(Self { grid: Grid::new(sim)?, host_overhead_s: DSI_HOST_OVERHEAD_S })
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
        let g = &self.grid;
        // Memory: up-front reservation for input + max output.
        let memory = g.reserve(batch, ReservePolicy::UpFront)?;
        let w = g.sim().workload();
        let (mean_in, s_max, stages) = (w.input().mean(), w.output().max_len(), g.stages());

        // Prefill with encode micro-batching (m_e = 2 per stage).
        let m_e = (2 * stages).min(batch).max(1);
        let t_prefill = g.encode(batch as f64 / m_e as f64, mean_in)? * (stages + m_e - 1) as f64;

        // Decode s_max iterations at constant batch; context grows.
        let m_d = stages.min(batch).max(1);
        let micro = batch as f64 / m_d as f64;
        let mut t_decode = Secs::ZERO;
        for u in 1..=s_max {
            t_decode += m_d as f64 * g.decode(micro, mean_in + u as f64)?;
        }
        t_decode += (stages as f64 - 1.0) * g.decode(micro, mean_in)?;

        // The engine overhead over the batch's decode iterations.
        let overhead = Secs::new(s_max as f64 * self.host_overhead_s);
        let t_batch = t_prefill + t_decode + overhead;
        let throughput = batch as f64 / t_batch.as_secs();
        Ok(g.estimate(
            batch,
            memory,
            t_batch,
            throughput,
            [t_prefill, t_decode + overhead, t_batch],
        ))
    }

    /// Sweeps batch sizes in multiples of four (§7.1) and returns the
    /// highest-throughput batch whose estimated latency meets `bound`.
    pub fn plan(&self, bound: Secs) -> Option<(usize, Estimate)> {
        self.grid.best_batch(bound, |b| self.estimate(b))
    }

    /// The latency sweep the paper derives its four bounds from: estimated
    /// full-batch latencies over all feasible batch sizes.
    pub fn latency_sweep(&self) -> Vec<Secs> {
        self.grid.batches().map_while(|b| self.estimate(b).ok().map(|e| e.latency)).collect()
    }

    /// Executes static batches of size `batch` over sampled queries.
    ///
    /// Every query's latency is its batch's full completion time (results
    /// return when the batch finishes; no early termination).
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] for infeasible configurations, and
    /// [`RunError::InvalidOptions`] for options a closed-loop replay cannot
    /// honour (see [`RunOptions`]).
    pub fn run(&self, batch: usize, opts: &RunOptions) -> Result<RunReport, RunError> {
        let g = &self.grid;
        let mut pending = g.pending(opts)?;
        self.estimate(batch)?; // feasibility gate
        let stages = g.stages();
        let s_dist_max = g.sim().workload().output().max_len();
        let mut kv = g.kv(ReservePolicy::UpFront);
        let mut t = 0.0f64;
        let mut log = CompletionLog::new(opts);
        let mut tokens: u64 = 0;

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
            let t_start = t;
            let b = batch_reqs.len();
            let mean_in: f64 =
                batch_reqs.iter().map(|(r, _)| r.input_len as f64).sum::<f64>() / b as f64;

            // Prefill.
            let m_e = (2 * stages).min(b).max(1);
            let enc_stage = g.encode(b as f64 / m_e as f64, mean_in)?;
            log.encoder_stage_times.push(enc_stage.as_secs());
            t += (enc_stage * (stages + m_e - 1) as f64).as_secs();

            // Decode to the batch's longest output with no early termination.
            let s_batch = batch_reqs.iter().map(|(r, _)| r.output_len).max().unwrap_or(0);
            let m_d = stages.min(b).max(1);
            let micro = b as f64 / m_d as f64;
            for u in 1..=s_batch {
                let worst = g.decode(micro, mean_in + u as f64)?;
                log.decoder_stage_times.push(worst.as_secs());
                t += (worst * m_d as f64).as_secs();
            }

            for (req, slot) in batch_reqs {
                tokens += req.output_len as u64;
                kv.release(slot);
                log.complete(t, t_start);
            }
        }

        let mut rep = log.into_report(tokens, kv.peak_bytes(), kv.clamped_tokens(), g.params());
        if self.host_overhead_s > 0.0 {
            // The kernels were timed alone; stretch the timeline by the
            // engine overhead of every decoding iteration.
            let extra = rep.decoder_stage_times.len() as f64 * self.host_overhead_s;
            let stretch =
                (rep.makespan.as_secs() + extra) / rep.makespan.as_secs().max(f64::MIN_POSITIVE);
            rep.makespan += Secs::new(extra);
            rep.throughput /= stretch;
            for l in &mut rep.latencies {
                *l *= stretch;
            }
        }
        Ok(rep)
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
