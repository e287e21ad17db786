//! DeepSpeed-Inference (paper §2, §7.2).
//!
//! DSI shares FasterTransformer's static-batch regime (fixed decode batch,
//! no early termination) and pioneered the hybrid encode/decode
//! micro-batching FT later adopted. Its public version supports tensor
//! parallelism only (§7.2), and its engine adds a small per-iteration host
//! cost that its custom small-batch GeMM kernels only partly recover —
//! calibrated so the Figure 7 ordering (FT above DSI) reproduces, as the
//! paper measures.

use exegpt_runner::{RunError, RunOptions, RunReport};
use exegpt_sim::{Estimate, SimError, Simulator};
use exegpt_units::Secs;

use crate::common::best_batch;
use crate::ft::FasterTransformer;

/// Per-iteration engine overhead of DSI's runtime relative to FT
/// (scheduler hop + kernel dispatch not hidden behind GPU work).
const HOST_OVERHEAD_S: f64 = 6e-4;

/// DeepSpeed-Inference: FT's regime restricted to pure tensor parallelism
/// with a per-iteration engine overhead.
#[derive(Debug, Clone)]
pub struct DeepSpeedInference {
    inner: FasterTransformer,
}

impl DeepSpeedInference {
    /// Creates DSI. The public version runs tensor parallelism only, so the
    /// cluster must be a single node (as in the paper's §7.2 comparison on
    /// four A40s).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the cluster spans nodes or
    /// no valid TP degree exists.
    pub fn new(sim: Simulator) -> Result<Self, SimError> {
        if sim.cluster().num_nodes() > 1 {
            return Err(SimError::InvalidConfig {
                what: "cluster",
                why: "public DeepSpeed-Inference supports tensor parallelism only; \
                      use a single-node sub-cluster"
                    .into(),
            });
        }
        let tp = sim
            .profile()
            .tp_degrees()
            .into_iter()
            .filter(|&d| {
                sim.cluster().total_gpus().is_multiple_of(d) && d <= sim.cluster().total_gpus()
            })
            .max()
            .unwrap_or(1);
        Ok(Self { inner: FasterTransformer::with_tensor_parallelism(sim, tp)? })
    }

    /// The underlying simulator context.
    pub fn simulator(&self) -> &Simulator {
        self.inner.simulator()
    }

    /// Closed-form estimate for a static batch size, including the engine
    /// overhead over the batch's decode iterations.
    ///
    /// # Errors
    ///
    /// See [`FasterTransformer::estimate`].
    pub fn estimate(&self, batch: usize) -> Result<Estimate, SimError> {
        let mut est = self.inner.estimate(batch)?;
        let iters = self.simulator().workload().output().max_len() as f64;
        let overhead = Secs::new(iters * HOST_OVERHEAD_S);
        est.latency += overhead;
        est.breakdown.decode_time += overhead;
        est.breakdown.period += overhead;
        est.throughput = batch as f64 / est.breakdown.period.as_secs();
        Ok(est)
    }

    /// Best static batch under a latency bound (multiples of four).
    pub fn plan(&self, bound: Secs) -> Option<(usize, Estimate)> {
        best_batch(self.simulator().profile().max_batch(), bound, |b| self.estimate(b))
    }

    /// Executes static batches of size `batch`, adding the engine overhead
    /// per generated-token iteration.
    ///
    /// # Errors
    ///
    /// See [`FasterTransformer::run`].
    pub fn run(&self, batch: usize, opts: &RunOptions) -> Result<RunReport, RunError> {
        let mut rep = self.inner.run(batch, opts)?;
        // The inner replay timed pure kernels; stretch the timeline by the
        // per-iteration engine overhead (iterations = decode stage samples).
        let extra = rep.decoder_stage_times.len() as f64 * HOST_OVERHEAD_S;
        let stretch =
            (rep.makespan.as_secs() + extra) / rep.makespan.as_secs().max(f64::MIN_POSITIVE);
        rep.makespan += Secs::new(extra);
        rep.throughput /= stretch;
        for l in &mut rep.latencies {
            *l *= stretch;
        }
        Ok(rep)
    }
}
