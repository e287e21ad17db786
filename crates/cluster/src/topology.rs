//! Cluster topology: nodes, GPUs, and the links between them.

use std::hash::Hasher;

use exegpt_dist::convert::widen_u64;
use exegpt_dist::FnvHasher;
use exegpt_units::BytesPerSec;
use serde::{Deserialize, Serialize};

use crate::error::ClusterError;
use crate::gpu::GpuSpec;
use crate::interconnect::Interconnect;

/// Identifier of a GPU within a cluster (dense, `0..total_gpus`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct GpuId(pub usize);

impl std::fmt::Display for GpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// A homogeneous GPU cluster: `num_nodes` machines of `gpus_per_node`
/// identical GPUs, with an intra-node and an inter-node interconnect.
///
/// Presets mirror Table 2 of the paper.
///
/// # Example
///
/// ```
/// use exegpt_cluster::{ClusterSpec, GpuId};
///
/// let c = ClusterSpec::a40_cluster();
/// assert_eq!(c.total_gpus(), 48);
/// // GPUs 0 and 1 share a node; 0 and 8 do not.
/// assert!(c.same_node(GpuId(0), GpuId(1)));
/// assert!(!c.same_node(GpuId(0), GpuId(8)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    name: String,
    gpu: GpuSpec,
    gpus_per_node: usize,
    num_nodes: usize,
    intra: Interconnect,
    inter: Interconnect,
    /// Per-node SSD read bandwidth (for deployment cost, Table 4).
    ssd_bandwidth: BytesPerSec,
    /// Effective per-GPU host-DRAM→device bandwidth under full fan-out.
    dram_to_gpu_bandwidth: BytesPerSec,
}

impl ClusterSpec {
    /// Creates a custom cluster.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidSpec`] for zero node/GPU counts.
    pub fn new(
        name: impl Into<String>,
        gpu: GpuSpec,
        gpus_per_node: usize,
        num_nodes: usize,
        intra: Interconnect,
        inter: Interconnect,
    ) -> Result<Self, ClusterError> {
        if gpus_per_node == 0 {
            return Err(ClusterError::InvalidSpec {
                what: "gpus_per_node",
                why: "must be non-zero",
            });
        }
        if num_nodes == 0 {
            return Err(ClusterError::InvalidSpec { what: "num_nodes", why: "must be non-zero" });
        }
        Ok(Self {
            name: name.into(),
            gpu,
            gpus_per_node,
            num_nodes,
            intra,
            inter,
            ssd_bandwidth: BytesPerSec::from_gb_per_sec(7.5),
            dram_to_gpu_bandwidth: BytesPerSec::from_gb_per_sec(5.0),
        })
    }

    /// The paper's A40 cluster: 6 nodes × 8 A40, PCIe 4.0 intra-node,
    /// 100 Gb InfiniBand inter-node.
    pub fn a40_cluster() -> Self {
        Self::new(
            "A40 cluster",
            GpuSpec::a40(),
            8,
            6,
            Interconnect::pcie4_x16(),
            Interconnect::infiniband_100gb(),
        )
        // xlint::allow(P1, preset arguments are compile-time constants covered by unit tests)
        .expect("preset cluster is valid")
    }

    /// The paper's A100 cluster: 2 nodes × 8 A100-80GB, NVLink 3.0
    /// intra-node, 8×200 Gb HDR InfiniBand inter-node.
    pub fn a100_cluster() -> Self {
        Self::new(
            "A100 cluster",
            GpuSpec::a100_80gb(),
            8,
            2,
            Interconnect::nvlink3(),
            Interconnect::infiniband_hdr_8x200gb(),
        )
        // xlint::allow(P1, preset arguments are compile-time constants covered by unit tests)
        .expect("preset cluster is valid")
    }

    /// Cluster name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The (homogeneous) GPU device spec.
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// GPUs per node.
    pub fn gpus_per_node(&self) -> usize {
        self.gpus_per_node
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total GPU count.
    pub fn total_gpus(&self) -> usize {
        self.gpus_per_node * self.num_nodes
    }

    /// Intra-node link.
    pub fn intra(&self) -> &Interconnect {
        &self.intra
    }

    /// Inter-node link.
    pub fn inter(&self) -> &Interconnect {
        &self.inter
    }

    /// Per-node SSD read bandwidth.
    pub fn ssd_bandwidth(&self) -> BytesPerSec {
        self.ssd_bandwidth
    }

    /// Effective per-GPU host-DRAM→device bandwidth.
    pub fn dram_to_gpu_bandwidth(&self) -> BytesPerSec {
        self.dram_to_gpu_bandwidth
    }

    /// Node index hosting `gpu`.
    pub fn node_of(&self, gpu: GpuId) -> usize {
        gpu.0 / self.gpus_per_node
    }

    /// Whether two GPUs share a node.
    pub fn same_node(&self, a: GpuId, b: GpuId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The link connecting two GPUs (intra-node if they share a node).
    pub fn link(&self, a: GpuId, b: GpuId) -> &Interconnect {
        if self.same_node(a, b) {
            &self.intra
        } else {
            &self.inter
        }
    }

    /// The link used by a tensor-parallel group of `group` GPUs starting at
    /// consecutive ids from `first`: intra-node if the whole group fits in
    /// one node, otherwise the inter-node link (the bottleneck).
    pub fn group_link(&self, first: GpuId, group: usize) -> &Interconnect {
        if group <= 1 {
            return &self.intra;
        }
        let last = GpuId(first.0 + group - 1);
        self.link(first, last)
    }

    /// Restricts the cluster to its first `gpus` GPUs (whole nodes plus a
    /// possibly partial final node), as when a model uses a sub-cluster.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InsufficientGpus`] if `gpus` exceeds the total
    /// or [`ClusterError::InvalidSpec`] if `gpus` is zero.
    pub fn subcluster(&self, gpus: usize) -> Result<ClusterSpec, ClusterError> {
        if gpus == 0 {
            return Err(ClusterError::InvalidSpec { what: "gpus", why: "must be non-zero" });
        }
        if gpus > self.total_gpus() {
            return Err(ClusterError::InsufficientGpus {
                requested: gpus,
                available: self.total_gpus(),
            });
        }
        let mut sub = self.clone();
        if gpus <= self.gpus_per_node {
            sub.gpus_per_node = gpus;
            sub.num_nodes = 1;
        } else {
            // Whole nodes; require divisibility to keep the topology regular.
            if !gpus.is_multiple_of(self.gpus_per_node) {
                return Err(ClusterError::InvalidSpec {
                    what: "gpus",
                    why: "multi-node sub-clusters must use whole nodes",
                });
            }
            sub.num_nodes = gpus / self.gpus_per_node;
        }
        Ok(sub)
    }

    /// The same topology built from a different (e.g. slowed) device spec.
    pub fn with_gpu(&self, gpu: GpuSpec) -> ClusterSpec {
        ClusterSpec { gpu, ..self.clone() }
    }

    /// The same topology with different (e.g. degraded) links.
    pub fn with_links(&self, intra: Interconnect, inter: Interconnect) -> ClusterSpec {
        ClusterSpec { intra, inter, ..self.clone() }
    }

    /// A structural fingerprint of the cluster: every field that can change
    /// a simulated timing or memory figure — device spec, topology counts,
    /// link bandwidths/latencies and the deployment-path bandwidths — folded
    /// into one FNV-1a hash. The display name is excluded, so a renamed but
    /// otherwise identical cluster fingerprints the same, and a topology
    /// that returns to its pre-fault shape (full recovery) reproduces its
    /// original fingerprint exactly.
    ///
    /// Used to key evaluation caches across cluster swaps: entries computed
    /// on one topology stay addressable when the simulator moves to a
    /// degraded one and become hits again on recovery.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FnvHasher::default();
        let mut fold = |v: u64| h.write(&v.to_le_bytes());
        fold(self.gpu.mem_bytes());
        fold(self.gpu.peak_flops().as_f64().to_bits());
        fold(self.gpu.mem_bandwidth().as_f64().to_bits());
        fold(self.gpu.launch_overhead().as_f64().to_bits());
        fold(widen_u64(self.gpus_per_node));
        fold(widen_u64(self.num_nodes));
        for link in [&self.intra, &self.inter] {
            fold(link.bandwidth().as_f64().to_bits());
            fold(link.latency().as_f64().to_bits());
        }
        fold(self.ssd_bandwidth.as_f64().to_bits());
        fold(self.dram_to_gpu_bandwidth.as_f64().to_bits());
        h.finish()
    }

    /// The largest regular sub-cluster that survives `failed` device
    /// failures: failed devices reject work, so the surviving topology is
    /// what a degraded schedule must be planned on.
    ///
    /// Survivor counts that no longer form a regular topology (more than
    /// one node, but not a whole number of nodes) are rounded *down* to
    /// whole nodes — the stragglers of a partial node sit idle rather than
    /// break the homogeneous pipeline layout. At one node or less the exact
    /// survivor count is kept.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InsufficientGpus`] when `failed` reaches the
    /// total GPU count (nothing survives to serve on).
    pub fn survivors(&self, failed: usize) -> Result<ClusterSpec, ClusterError> {
        let total = self.total_gpus();
        if failed >= total {
            return Err(ClusterError::InsufficientGpus { requested: 1, available: 0 });
        }
        let alive = total - failed;
        let regular =
            if alive <= self.gpus_per_node { alive } else { alive - alive % self.gpus_per_node };
        self.subcluster(regular.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_node_mapping() {
        let c = ClusterSpec::a100_cluster();
        assert_eq!(c.total_gpus(), 16);
        assert_eq!(c.node_of(GpuId(7)), 0);
        assert_eq!(c.node_of(GpuId(8)), 1);
    }

    #[test]
    fn link_selection() {
        let c = ClusterSpec::a40_cluster();
        assert_eq!(c.link(GpuId(0), GpuId(7)).name(), "PCIe 4.0 x16");
        assert_eq!(c.link(GpuId(0), GpuId(8)).name(), "InfiniBand 100Gb");
        assert_eq!(c.group_link(GpuId(0), 8).name(), "PCIe 4.0 x16");
        assert_eq!(c.group_link(GpuId(4), 8).name(), "InfiniBand 100Gb");
    }

    #[test]
    fn subcluster_within_node() {
        let c = ClusterSpec::a40_cluster();
        let s = c.subcluster(4).expect("4 gpus fit in one node");
        assert_eq!(s.total_gpus(), 4);
        assert_eq!(s.num_nodes(), 1);
    }

    #[test]
    fn subcluster_whole_nodes() {
        let c = ClusterSpec::a40_cluster();
        let s = c.subcluster(16).expect("two whole nodes");
        assert_eq!(s.num_nodes(), 2);
        assert_eq!(s.total_gpus(), 16);
        assert!(c.subcluster(12).is_err(), "1.5 nodes is rejected");
    }

    #[test]
    fn subcluster_bounds() {
        let c = ClusterSpec::a100_cluster();
        assert!(c.subcluster(0).is_err());
        assert!(matches!(
            c.subcluster(64),
            Err(ClusterError::InsufficientGpus { requested: 64, available: 16 })
        ));
    }

    #[test]
    fn survivors_keep_exact_counts_within_a_node() {
        let c = ClusterSpec::a40_cluster().subcluster(4).expect("fits");
        let s = c.survivors(1).expect("three survive");
        assert_eq!(s.total_gpus(), 3);
        assert_eq!(s.num_nodes(), 1);
        let s = c.survivors(3).expect("one survives");
        assert_eq!(s.total_gpus(), 1);
        assert!(c.survivors(4).is_err(), "nothing survives to serve on");
    }

    #[test]
    fn survivors_round_down_to_whole_nodes() {
        let c = ClusterSpec::a40_cluster();
        // 47 survivors -> 5 whole nodes of 8.
        assert_eq!(c.survivors(1).expect("survives").total_gpus(), 40);
        // 8 survivors exactly fill one node.
        assert_eq!(c.survivors(40).expect("survives").total_gpus(), 8);
        // 7 survivors keep the exact count (single partial node).
        assert_eq!(c.survivors(41).expect("survives").total_gpus(), 7);
    }

    #[test]
    fn with_gpu_and_links_preserve_topology() {
        let c = ClusterSpec::a40_cluster();
        let slowed = c.with_gpu(c.gpu().slowed(2.0).expect("valid"));
        assert_eq!(slowed.total_gpus(), c.total_gpus());
        assert!(slowed.gpu().peak_flops() < c.gpu().peak_flops());
        let degraded = c.with_links(
            c.intra().degraded(0.5, exegpt_units::Secs::ZERO).expect("valid"),
            c.inter().degraded(0.5, exegpt_units::Secs::ZERO).expect("valid"),
        );
        assert_eq!(degraded.num_nodes(), c.num_nodes());
        assert!(degraded.inter().bandwidth() < c.inter().bandwidth());
    }

    #[test]
    fn fingerprint_tracks_structure_not_name() {
        let c = ClusterSpec::a40_cluster();
        let mut renamed = c.clone();
        renamed.name = "same cluster, different label".into();
        assert_eq!(c.fingerprint(), renamed.fingerprint());
        // Every structural change moves the fingerprint...
        assert_ne!(c.fingerprint(), c.subcluster(8).expect("fits").fingerprint());
        assert_ne!(c.fingerprint(), c.with_gpu(c.gpu().slowed(2.0).expect("valid")).fingerprint());
        assert_ne!(
            c.fingerprint(),
            c.with_links(
                c.intra().degraded(0.5, exegpt_units::Secs::ZERO).expect("valid"),
                c.inter().clone(),
            )
            .fingerprint()
        );
        // ...and re-deriving the same shape reproduces it (recovery).
        let sub = c.subcluster(4).expect("fits");
        assert_eq!(sub.fingerprint(), c.subcluster(4).expect("fits").fingerprint());
        assert_ne!(sub.fingerprint(), sub.survivors(1).expect("ok").fingerprint());
        // Pinned values: the fingerprint is little-endian FNV-1a on every
        // platform, so a change to the fold shows up here.
        assert_eq!(c.fingerprint(), 0x06a8_e0dd_4345_ae06);
        assert_eq!(sub.fingerprint(), 0xd6e9_746b_a50d_05b1);
    }

    #[test]
    fn rejects_degenerate_topology() {
        assert!(ClusterSpec::new(
            "x",
            GpuSpec::a40(),
            0,
            1,
            Interconnect::pcie4_x16(),
            Interconnect::infiniband_100gb()
        )
        .is_err());
    }
}
