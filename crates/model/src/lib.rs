//! Transformer model architecture descriptions for the ExeGPT reproduction.
//!
//! This crate is the *model substrate*: it describes the shapes of the LLMs the
//! paper evaluates (Table 1) and turns those shapes into the quantities the
//! rest of the system consumes — floating-point operation counts, parameter
//! bytes, key/value-cache bytes, and layer partitionings across pipeline
//! stages.
//!
//! No weights are ever materialized: ExeGPT is a *scheduling* system and the
//! only thing scheduling needs from a model is how much compute and memory
//! each of its layers costs (see `DESIGN.md` §1 for the substitution
//! rationale).
//!
//! # Example
//!
//! ```
//! use exegpt_model::ModelConfig;
//!
//! let opt = ModelConfig::opt_13b();
//! // OPT-13B really has ~13e9 parameters.
//! let billions = opt.param_count() as f64 / 1e9;
//! assert!((12.0..14.5).contains(&billions));
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

mod config;
mod error;
mod flops;
mod memory;
mod partition;
mod presets;

pub use config::{LayerKind, ModelConfig, ModelKind};
pub use error::ModelError;
pub use flops::KernelCost;
pub use memory::MemoryFootprint;
pub use partition::{LayerRange, Partition};
