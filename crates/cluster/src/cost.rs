//! Roofline kernel-time model.

use exegpt_model::KernelCost;
use exegpt_units::{Bytes, Flops, Secs};

use crate::gpu::GpuSpec;

/// Turns a [`KernelCost`] (FLOPs + bytes) into time on a given GPU.
///
/// The model is a classical roofline with saturating efficiency:
///
/// ```text
/// t = max( flops / (peak_flops · eff_c(flops)),
///          bytes / (mem_bw    · eff_m(bytes)) ) + launch_overhead
/// ```
///
/// Efficiency curves live on [`GpuSpec`]; this type just combines them. It is
/// cheap to clone and `Send + Sync`, so the profiler can sweep it from
/// multiple threads.
///
/// # Example
///
/// ```
/// use exegpt_cluster::{CostModel, GpuSpec};
/// use exegpt_model::KernelCost;
///
/// let cm = CostModel::new(GpuSpec::a100_80gb());
/// let small = cm.kernel_time(KernelCost { flops: 1e6, bytes: 1e4 });
/// let large = cm.kernel_time(KernelCost { flops: 1e12, bytes: 1e8 });
/// assert!(large > small);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    gpu: GpuSpec,
}

impl CostModel {
    /// Creates a cost model for the given device.
    pub fn new(gpu: GpuSpec) -> Self {
        Self { gpu }
    }

    /// The underlying device spec.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Execution time of one kernel with the given work.
    ///
    /// Zero-work kernels still pay the launch overhead (a real `cudaLaunch`
    /// does too); callers that want "no kernel" should not call this.
    pub fn kernel_time(&self, cost: KernelCost) -> Secs {
        let flops = Flops::new(cost.flops);
        let bytes = Bytes::new(cost.bytes);
        let compute = if cost.flops > 0.0 {
            flops / (self.gpu.peak_flops() * self.gpu.compute_efficiency(flops))
        } else {
            Secs::ZERO
        };
        let memory = if cost.bytes > 0.0 {
            bytes / (self.gpu.mem_bandwidth() * self.gpu.memory_efficiency(bytes))
        } else {
            Secs::ZERO
        };
        compute.max(memory) + self.gpu.launch_overhead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm() -> CostModel {
        CostModel::new(GpuSpec::a40())
    }

    #[test]
    fn zero_work_costs_only_overhead() {
        let t = cm().kernel_time(KernelCost::default());
        assert_eq!(t, cm().gpu().launch_overhead());
    }

    #[test]
    fn time_is_monotone_in_flops_and_bytes() {
        let c = cm();
        let mut prev = Secs::ZERO;
        for exp in 6..14 {
            let t = c.kernel_time(KernelCost { flops: 10f64.powi(exp), bytes: 0.0 });
            assert!(t > prev);
            prev = t;
        }
        let mut prev = Secs::ZERO;
        for exp in 3..11 {
            let t = c.kernel_time(KernelCost { flops: 0.0, bytes: 10f64.powi(exp) });
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn memory_bound_kernel_ignores_small_flops() {
        let c = cm();
        // Typical decode: tiny flops, big bytes.
        let t_mem = c.kernel_time(KernelCost { flops: 0.0, bytes: 1e9 });
        let t_both = c.kernel_time(KernelCost { flops: 1e8, bytes: 1e9 });
        assert!((t_both - t_mem).as_secs().abs() / t_mem.as_secs() < 1e-9);
    }

    #[test]
    fn a100_is_faster_than_a40_on_big_kernels() {
        let k = KernelCost { flops: 1e12, bytes: 1e9 };
        let t40 = CostModel::new(GpuSpec::a40()).kernel_time(k);
        let t100 = CostModel::new(GpuSpec::a100_80gb()).kernel_time(k);
        assert!(t100 < t40);
    }
}
