//! Interconnect links and collective-communication cost formulas.

use exegpt_dist::convert::lossless_f64;
use exegpt_units::{Bytes, BytesPerSec, Secs};
use serde::Serialize;

use crate::error::ClusterError;

/// A communication link characterized by bandwidth and base latency.
///
/// Presets match the paper's clusters (Table 2): NVLink 3.0 and 8×200 Gb HDR
/// InfiniBand on the A100 cluster; PCIe 4.0 ×16 and 100 Gb InfiniBand on the
/// A40 cluster.
///
/// # Example
///
/// ```
/// use exegpt_cluster::Interconnect;
/// use exegpt_units::Bytes;
///
/// let nv = Interconnect::nvlink3();
/// let pcie = Interconnect::pcie4_x16();
/// // All-reducing 100 MB across 8 GPUs is much cheaper over NVLink.
/// let payload = Bytes::new(100e6);
/// assert!(nv.allreduce_time(payload, 8) < pcie.allreduce_time(payload, 8) * 0.2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Interconnect {
    name: String,
    bandwidth: BytesPerSec,
    latency: Secs,
}

impl Interconnect {
    /// Creates a custom link.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidSpec`] for non-positive bandwidth or
    /// negative latency.
    pub fn new(
        name: impl Into<String>,
        bandwidth: BytesPerSec,
        latency: Secs,
    ) -> Result<Self, ClusterError> {
        #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must be rejected too")]
        if !(bandwidth.as_f64() > 0.0) {
            return Err(ClusterError::InvalidSpec { what: "bandwidth", why: "must be positive" });
        }
        #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must be rejected too")]
        if !(latency.as_f64() >= 0.0) {
            return Err(ClusterError::InvalidSpec { what: "latency", why: "must be non-negative" });
        }
        Ok(Self { name: name.into(), bandwidth, latency })
    }

    /// NVLink 3.0: ~300 GB/s effective per-GPU pairwise, ~3 µs latency.
    pub fn nvlink3() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "preset arguments are compile-time constants covered by unit tests"
        )]
        let link =
            Self::new("NVLink 3.0", BytesPerSec::from_gb_per_sec(300.0), Secs::from_micros(3.0))
                .expect("preset link is valid");
        link
    }

    /// PCIe 4.0 ×16: ~25 GB/s effective, ~5 µs latency.
    pub fn pcie4_x16() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "preset arguments are compile-time constants covered by unit tests"
        )]
        let link =
            Self::new("PCIe 4.0 x16", BytesPerSec::from_gb_per_sec(25.0), Secs::from_micros(5.0))
                .expect("preset link is valid");
        link
    }

    /// 100 Gb InfiniBand: ~12 GB/s effective, ~10 µs latency.
    pub fn infiniband_100gb() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "preset arguments are compile-time constants covered by unit tests"
        )]
        let link = Self::new(
            "InfiniBand 100Gb",
            BytesPerSec::from_gb_per_sec(12.0),
            Secs::from_micros(10.0),
        )
        .expect("preset link is valid");
        link
    }

    /// 8×200 Gb HDR InfiniBand (A100 cluster inter-node): ~190 GB/s, ~8 µs.
    pub fn infiniband_hdr_8x200gb() -> Self {
        #[expect(
            clippy::expect_used,
            reason = "preset arguments are compile-time constants covered by unit tests"
        )]
        let link = Self::new(
            "InfiniBand 8x200Gb HDR",
            BytesPerSec::from_gb_per_sec(190.0),
            Secs::from_micros(8.0),
        )
        .expect("preset link is valid");
        link
    }

    /// Link name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Effective bandwidth.
    pub fn bandwidth(&self) -> BytesPerSec {
        self.bandwidth
    }

    /// Base message latency.
    pub fn latency(&self) -> Secs {
        self.latency
    }

    /// Time to send `bytes` point-to-point over this link.
    pub fn p2p_time(&self, bytes: Bytes) -> Secs {
        self.latency + bytes.max_zero() / self.bandwidth
    }

    /// Time for a ring all-reduce of `bytes` across `group_size` peers.
    ///
    /// Standard ring cost: each peer sends `2·(n−1)/n · bytes` in `2·(n−1)`
    /// latency-bound steps. A group of 1 costs nothing.
    pub fn allreduce_time(&self, bytes: Bytes, group_size: usize) -> Secs {
        if group_size <= 1 {
            return Secs::ZERO;
        }
        let n = lossless_f64(group_size);
        let steps = 2.0 * (n - 1.0);
        self.latency * steps + bytes.max_zero() * (2.0 * (n - 1.0) / n) / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_links() {
        let zero = Secs::ZERO;
        assert!(Interconnect::new("x", BytesPerSec::new(0.0), zero).is_err());
        assert!(Interconnect::new("x", BytesPerSec::new(1.0), Secs::new(-1.0)).is_err());
        assert!(Interconnect::new("x", BytesPerSec::new(f64::NAN), zero).is_err());
    }

    #[test]
    fn p2p_includes_latency_floor() {
        let l = Interconnect::pcie4_x16();
        assert!(l.p2p_time(Bytes::ZERO) >= l.latency());
        assert!(l.p2p_time(Bytes::new(1e9)) > l.p2p_time(Bytes::new(1e6)));
    }

    #[test]
    fn allreduce_trivial_group_is_free() {
        let l = Interconnect::nvlink3();
        assert_eq!(l.allreduce_time(Bytes::new(1e9), 1), Secs::ZERO);
        assert_eq!(l.allreduce_time(Bytes::new(1e9), 0), Secs::ZERO);
    }

    #[test]
    fn allreduce_bandwidth_term_approaches_2x() {
        let l = Interconnect::new("ideal", BytesPerSec::new(1e9), Secs::ZERO).expect("valid");
        // 2(n-1)/n -> 2 as n grows.
        let t = l.allreduce_time(Bytes::new(1e9), 64);
        assert!((t.as_secs() - 2.0 * 63.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn allreduce_grows_with_group() {
        let l = Interconnect::pcie4_x16();
        let b = Bytes::new(1e8);
        assert!(l.allreduce_time(b, 8) > l.allreduce_time(b, 2));
    }
}
