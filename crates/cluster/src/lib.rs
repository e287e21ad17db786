//! Simulated GPU cluster substrate for the ExeGPT reproduction.
//!
//! The paper evaluates on two physical clusters (48×A40/PCIe and
//! 16×A100/NVLink, Table 2). This crate replaces that hardware with an
//! analytical substrate, per the substitution table in `DESIGN.md`:
//!
//! * [`GpuSpec`] — device capability description (peak FP16 throughput, HBM
//!   bandwidth, memory capacity) with presets for the A40 and A100.
//! * [`CostModel`] — a roofline kernel-time model: a kernel's execution time
//!   is `max(flops / effective_compute, bytes / effective_bandwidth)` plus a
//!   launch overhead, with efficiency saturating as per-kernel work grows
//!   (small kernels underutilize a GPU; this is what makes batching pay).
//! * [`Interconnect`] / [`ClusterSpec`] — topology: nodes × GPUs, intra-node
//!   and inter-node links, ring all-reduce and point-to-point cost formulas.
//! * [`LoadCostModel`] — model (re-)deployment time from SSD or host DRAM
//!   (paper §7.7, Table 4).
//!
//! Everything downstream (profiler, simulator, scheduler, runner) consumes
//! *times* from this crate, never hardware details, so the substitution is
//! confined here.
//!
//! # Example
//!
//! ```
//! use exegpt_cluster::{ClusterSpec, CostModel};
//! use exegpt_model::ModelConfig;
//!
//! let cluster = ClusterSpec::a40_cluster();
//! let model = ModelConfig::opt_13b();
//! let cost = CostModel::new(cluster.gpu().clone());
//! // Encoding 32x128 tokens takes far longer than one decode iteration.
//! let enc = cost.kernel_time(model.encode_rest_cost(32, 128));
//! let dec = cost.kernel_time(model.decode_rest_cost(32));
//! assert!(enc > 10.0 * dec);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// The numeric-safety gate for library code (DESIGN.md §6.1): test builds,
// binaries and integration tests are separate crates and stay exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::as_conversions,
        clippy::float_cmp,
        clippy::let_underscore_must_use
    ),
    deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)
)]

mod cost;
mod error;
mod gpu;
mod interconnect;
mod loading;
mod topology;

pub use cost::CostModel;
pub use error::ClusterError;
pub use gpu::GpuSpec;
pub use interconnect::Interconnect;
pub use loading::{LoadCostModel, LoadSource};
pub use topology::{ClusterSpec, GpuId};
