//! Simulation results.

use exegpt_model::MemoryFootprint;
use exegpt_units::Secs;
use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// Per-GPU memory accounting of a schedule (drives Figure 9 and the
/// feasibility check).
///
/// For WAA the encoder- and decoder-group GPUs differ; for RRA (and the
/// baselines) the two entries are identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Footprint of one encoding-group GPU.
    pub encoder_gpu: MemoryFootprint,
    /// Footprint of one decoding-group GPU.
    pub decoder_gpu: MemoryFootprint,
    /// Usable capacity per GPU in bytes (after the workspace reserve).
    pub capacity: u64,
}

impl MemoryReport {
    /// The larger of the two per-GPU totals.
    pub fn peak(&self) -> u64 {
        self.encoder_gpu.total().max(self.decoder_gpu.total())
    }
}

/// Timeline decomposition of an estimate, useful for debugging schedules
/// and for the trade-off case study (Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Time of one encoding phase / encode-pipeline period.
    pub encode_time: Secs,
    /// Time of one full decoding phase (RRA: `N_D` iterations; WAA: one
    /// pool iteration).
    pub decode_time: Secs,
    /// Steady-state period between consecutive batch completions.
    pub period: Secs,
    /// Number of pipeline stages (WAA: decoding-group stages).
    pub stages: usize,
    /// Derived decoding batch size `B_D`.
    pub decode_batch: usize,
}

/// The simulator's verdict on one schedule configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Time to generate the 99th-percentile-length output, including the
    /// query's own encoding (the paper's constrained quantity, §7.1).
    pub latency: Secs,
    /// Completed queries per second in steady state.
    pub throughput: f64,
    /// Per-GPU memory accounting.
    pub memory: MemoryReport,
    /// Timeline decomposition.
    pub breakdown: Breakdown,
}

/// The score of one configuration: the two numbers of an [`Estimate`] the
/// scheduler's search reads, as [`Scorer::score`](crate::Scorer::score)
/// returns them.
///
/// Infeasible configurations (out of memory, structurally invalid) score
/// [`Perf::INFEASIBLE`]: infinite latency keeps them out of the candidate
/// set, and infinite throughput keeps them from wrongly pruning blocks when
/// they appear as an upper-bound corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perf {
    /// Latency of the configuration.
    pub latency: Secs,
    /// Throughput in queries per second.
    pub throughput: f64,
}

impl Perf {
    /// The sentinel for configurations that cannot run.
    pub const INFEASIBLE: Perf = Perf { latency: Secs::INFINITY, throughput: f64::INFINITY };

    /// The score of an evaluation: its latency and throughput, or
    /// [`Perf::INFEASIBLE`] for any error.
    pub(crate) fn of(result: &Result<Estimate, SimError>) -> Perf {
        match result {
            Ok(e) => Perf { latency: e.latency, throughput: e.throughput },
            Err(_) => Perf::INFEASIBLE,
        }
    }

    /// Whether this point can be a solution under `bound`.
    pub fn satisfies(&self, bound: Secs) -> bool {
        self.latency.is_finite() && self.latency <= bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_picks_the_larger_side() {
        let small = MemoryFootprint { param_bytes: 10, kv_bytes: 0, activation_bytes: 0 };
        let large = MemoryFootprint { param_bytes: 10, kv_bytes: 90, activation_bytes: 0 };
        let r = MemoryReport { encoder_gpu: small, decoder_gpu: large, capacity: 1000 };
        assert_eq!(r.peak(), 100);
    }
}
