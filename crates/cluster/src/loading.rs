//! Model (re-)deployment cost: loading parameters from SSD or host DRAM.
//!
//! Reproduces the cost structure behind Table 4 of the paper (§7.7): initial
//! deployment streams weights from SSD; re-deployment after a schedule change
//! reloads from host DRAM, which is several times faster.

use exegpt_dist::convert::lossless_f64;
use exegpt_units::{Bytes, Secs};
use serde::Serialize;

use crate::topology::ClusterSpec;

/// Where the weights are loaded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum LoadSource {
    /// Initial deployment: weights on NVMe SSD.
    Ssd,
    /// Re-deployment: weights cached in host DRAM.
    Dram,
}

/// Deployment-time model for a cluster.
///
/// Loading is parallel across nodes (each node reads its own shard from its
/// own SSD) and fan-out limited per GPU by the effective host→device
/// bandwidth; a fixed per-deployment overhead covers process startup and
/// NCCL/communicator initialization.
///
/// # Example
///
/// ```
/// use exegpt_cluster::{ClusterSpec, LoadCostModel, LoadSource};
/// use exegpt_model::ModelConfig;
///
/// let lcm = LoadCostModel::new(ClusterSpec::a40_cluster());
/// let m = ModelConfig::gpt3_175b();
/// let ssd = lcm.load_time(m.param_bytes(), 32, LoadSource::Ssd);
/// let dram = lcm.load_time(m.param_bytes(), 32, LoadSource::Dram);
/// assert!(dram < ssd);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoadCostModel {
    cluster: ClusterSpec,
    fixed_overhead: Secs,
}

impl LoadCostModel {
    /// Creates a deployment-cost model for the cluster.
    pub fn new(cluster: ClusterSpec) -> Self {
        Self { cluster, fixed_overhead: Secs::from_secs(0.35) }
    }

    /// Time to load `param_bytes` of weights onto `gpus` GPUs.
    ///
    /// `gpus` is clamped to at least 1. Nodes involved:
    /// `ceil(gpus / gpus_per_node)`.
    pub fn load_time(&self, param_bytes: u64, gpus: usize, source: LoadSource) -> Secs {
        let gpus = gpus.max(1);
        let nodes = gpus.div_ceil(self.cluster.gpus_per_node());
        let bytes = Bytes::new(lossless_f64(param_bytes));
        let per_gpu = bytes / lossless_f64(gpus);
        let xfer = match source {
            LoadSource::Ssd => {
                let per_node = bytes / lossless_f64(nodes);
                // SSD read and PCIe upload are pipelined; the slower governs.
                (per_node / self.cluster.ssd_bandwidth())
                    .max(per_gpu / self.cluster.dram_to_gpu_bandwidth())
            }
            LoadSource::Dram => per_gpu / self.cluster.dram_to_gpu_bandwidth(),
        };
        self.fixed_overhead + xfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exegpt_model::ModelConfig;

    fn lcm() -> LoadCostModel {
        LoadCostModel::new(ClusterSpec::a40_cluster())
    }

    #[test]
    fn dram_is_faster_than_ssd() {
        let m = ModelConfig::gpt3_341b();
        let ssd = lcm().load_time(m.param_bytes(), 48, LoadSource::Ssd);
        let dram = lcm().load_time(m.param_bytes(), 48, LoadSource::Dram);
        assert!(dram < ssd);
    }

    #[test]
    fn bigger_models_take_longer() {
        let small = ModelConfig::gpt3_101b();
        let large = ModelConfig::gpt3_175b();
        let t_small = lcm().load_time(small.param_bytes(), 32, LoadSource::Ssd);
        let t_large = lcm().load_time(large.param_bytes(), 32, LoadSource::Ssd);
        assert!(t_large > t_small);
    }

    /// Shape check against Table 4: every DRAM reload is seconds-scale and
    /// the 341B/48-GPU SSD load is in the ~10-20 s band the paper reports.
    #[test]
    fn table4_magnitudes() {
        let m = ModelConfig::gpt3_341b();
        let ssd = lcm().load_time(m.param_bytes(), 48, LoadSource::Ssd).as_secs();
        assert!((8.0..25.0).contains(&ssd), "341B SSD load was {ssd:.1}s");
        let dram = lcm().load_time(m.param_bytes(), 48, LoadSource::Dram).as_secs();
        assert!((1.0..6.0).contains(&dram), "341B DRAM load was {dram:.1}s");
    }

    #[test]
    fn zero_gpus_is_clamped() {
        let t = lcm().load_time(1 << 30, 0, LoadSource::Dram);
        assert!(t.is_finite() && t > Secs::ZERO);
    }
}
