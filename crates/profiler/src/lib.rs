//! XProfiler: per-layer execution-time profiles (paper §3).
//!
//! The real XProfiler measures, once per (LLM, GPU cluster) pair, the
//! execution time of a *single* encoder/decoder layer — separately for the
//! attention kernel (swept over batch sizes and sequence lengths) and the
//! rest of the layer (swept over input sizes), for every feasible
//! tensor-parallel degree — plus the tensor- and pipeline-parallel
//! synchronization overheads.
//!
//! This reproduction performs exactly the same sweeps, but the "measurement"
//! is a query to the analytical roofline cost model in `exegpt-cluster`
//! rather than a CUDA kernel launch. Crucially, the rest of the system never
//! touches the cost model: the simulator and scheduler interpolate the swept
//! [`LayerProfile`] tables, preserving the paper's information flow
//! (profile → simulate → schedule) and keeping the hardware substitution
//! confined to this boundary (see `DESIGN.md`).
//!
//! # Example
//!
//! ```
//! use exegpt_cluster::ClusterSpec;
//! use exegpt_model::ModelConfig;
//! use exegpt_profiler::{ProfileOptions, Profiler};
//! use exegpt_units::Secs;
//!
//! let model = ModelConfig::opt_13b();
//! let cluster = ClusterSpec::a40_cluster().subcluster(4)?;
//! let profile = Profiler::new(model, cluster).run(&ProfileOptions::default())?;
//! // One decode iteration of a 32-query batch with ~200-token contexts:
//! let t = profile.decode_layer_time(32.0, 200.0, 100.0, 1)?;
//! assert!(t > Secs::ZERO && t < Secs::from_millis(100.0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
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
        clippy::float_cmp,
        clippy::let_underscore_must_use
    ),
    deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)
)]

mod error;
mod grid;
mod profile;
mod profiler;

pub use error::ProfileError;
pub use grid::{Grid1D, Grid2D};
pub use profile::{DecodeStageGrid, LayerProfile};
pub use profiler::{ProfileCache, ProfileOptions, Profiler};
