//! GPU device capability descriptions.

use exegpt_units::{Bytes, BytesPerSec, Flops, FlopsPerSec, Secs};
use serde::Serialize;

use crate::error::ClusterError;

/// Capability description of a single GPU device.
///
/// The two presets correspond to the devices in Table 2 of the paper. Peak
/// numbers are the published dense-FP16 tensor-core throughput and HBM
/// bandwidth; the [`CostModel`](crate::CostModel) applies saturating
/// efficiency curves on top of them, so these are *ceilings*, not achieved
/// rates.
///
/// # Example
///
/// ```
/// use exegpt_cluster::GpuSpec;
///
/// let a100 = GpuSpec::a100_80gb();
/// assert!(a100.peak_flops() > GpuSpec::a40().peak_flops());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GpuSpec {
    name: String,
    mem_bytes: u64,
    peak_flops: FlopsPerSec,
    mem_bandwidth: BytesPerSec,
    launch_overhead: Secs,
    max_compute_efficiency: f64,
    max_memory_efficiency: f64,
    /// Work at which compute efficiency reaches half of its maximum.
    compute_half_sat: Flops,
    /// Traffic at which memory efficiency reaches half of its maximum.
    memory_half_sat: Bytes,
}

impl GpuSpec {
    /// Creates a custom GPU spec.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidSpec`] if any capacity/throughput is
    /// non-positive (or NaN).
    pub fn new(
        name: impl Into<String>,
        mem_bytes: u64,
        peak_flops: FlopsPerSec,
        mem_bandwidth: BytesPerSec,
    ) -> Result<Self, ClusterError> {
        if mem_bytes == 0 {
            return Err(ClusterError::InvalidSpec { what: "mem_bytes", why: "must be non-zero" });
        }
        #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must be rejected too")]
        if !(peak_flops.as_f64() > 0.0) || !(mem_bandwidth.as_f64() > 0.0) {
            return Err(ClusterError::InvalidSpec {
                what: "throughput",
                why: "peak_flops and mem_bandwidth must be positive",
            });
        }
        Ok(Self {
            name: name.into(),
            mem_bytes,
            peak_flops,
            mem_bandwidth,
            launch_overhead: Secs::from_micros(12.0),
            max_compute_efficiency: 0.62,
            max_memory_efficiency: 0.82,
            compute_half_sat: Flops::new(3.0e9),
            memory_half_sat: Bytes::new(24.0e6),
        })
    }

    /// NVIDIA A40: 48 GB, ~149.7 TFLOPS dense FP16, 696 GB/s GDDR6.
    pub fn a40() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "preset arguments are compile-time constants covered by unit tests"
        )]
        let spec = Self::new(
            "A40",
            48 * (1u64 << 30),
            FlopsPerSec::from_tflops(149.7),
            BytesPerSec::from_gb_per_sec(696.0),
        )
        .expect("preset spec is valid");
        spec
    }

    /// NVIDIA A100 80 GB SXM: ~312 TFLOPS dense FP16, 2039 GB/s HBM2e.
    pub fn a100_80gb() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "preset arguments are compile-time constants covered by unit tests"
        )]
        let spec = Self::new(
            "A100-80GB",
            80 * (1u64 << 30),
            FlopsPerSec::from_tflops(312.0),
            BytesPerSec::from_gb_per_sec(2039.0),
        )
        .expect("preset spec is valid");
        spec
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Device memory capacity in bytes (integer: a discrete capacity, not a
    /// roofline quantity).
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// Peak dense-FP16 throughput.
    pub fn peak_flops(&self) -> FlopsPerSec {
        self.peak_flops
    }

    /// Peak device-memory bandwidth.
    pub fn mem_bandwidth(&self) -> BytesPerSec {
        self.mem_bandwidth
    }

    /// Fixed per-kernel launch overhead.
    pub fn launch_overhead(&self) -> Secs {
        self.launch_overhead
    }

    /// Achieved fraction of peak compute for a kernel of `flops` work.
    ///
    /// Saturating curve `max_eff · x / (x + k)`: tiny kernels achieve a small
    /// fraction of peak (launch ramp, low occupancy), large GEMMs approach
    /// `max_eff`. This is the mechanism by which batch size trades latency
    /// for throughput throughout the reproduction.
    pub fn compute_efficiency(&self, flops: Flops) -> f64 {
        let x = flops.max_zero();
        self.max_compute_efficiency * (x / (x + self.compute_half_sat))
    }

    /// Achieved fraction of peak bandwidth for a kernel moving `bytes`.
    pub fn memory_efficiency(&self, bytes: Bytes) -> f64 {
        let x = bytes.max_zero();
        self.max_memory_efficiency * (x / (x + self.memory_half_sat))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_specs() {
        let one_bps = BytesPerSec::new(1.0);
        assert!(GpuSpec::new("bad", 0, FlopsPerSec::new(1.0), one_bps).is_err());
        assert!(GpuSpec::new("bad", 1, FlopsPerSec::new(0.0), one_bps).is_err());
        assert!(GpuSpec::new("bad", 1, FlopsPerSec::new(1.0), BytesPerSec::new(-1.0)).is_err());
        assert!(GpuSpec::new("bad", 1, FlopsPerSec::new(f64::NAN), one_bps).is_err());
    }

    #[test]
    fn efficiency_is_monotone_and_bounded() {
        let g = GpuSpec::a40();
        let mut prev = 0.0;
        for exp in 0..15 {
            let e = g.compute_efficiency(Flops::new(10f64.powi(exp)));
            assert!(e >= prev);
            assert!(e < 1.0);
            prev = e;
        }
        assert!(g.compute_efficiency(Flops::new(1e15)) > 0.6);
    }

    #[test]
    fn a100_beats_a40() {
        let a40 = GpuSpec::a40();
        let a100 = GpuSpec::a100_80gb();
        assert!(a100.peak_flops() > a40.peak_flops());
        assert!(a100.mem_bandwidth() > a40.mem_bandwidth());
        assert!(a100.mem_bytes() > a40.mem_bytes());
    }
}
