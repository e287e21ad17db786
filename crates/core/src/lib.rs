//! ExeGPT: constraint-aware resource scheduling for LLM inference.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*ExeGPT: Constraint-Aware Resource Scheduling for LLM Inference*,
//! ASPLOS 2024): given a latency constraint, find — and describe how to run —
//! the execution schedule that maximizes inference throughput.
//!
//! The pieces, mirroring the paper:
//!
//! * [`Scheduler`] — the XScheduler. For each scheduling policy
//!   ([`Policy::Rra`], [`Policy::WaaCompute`], [`Policy::WaaMemory`]) and
//!   each partial-tensor-parallel setting (degree fixed per run, as §5.1
//!   prescribes), it runs a branch-and-bound search ([`bnb`]) over the
//!   monotone control variables (`B_E` × encoding frequency for RRA,
//!   `B_E` × decoder micro-batch for WAA) and returns the best feasible
//!   [`Schedule`].
//! * [`bnb`] — Algorithm 1: branch-and-bound for monotonic optimization
//!   with latency/throughput tolerances.
//! * [`DynamicAdjuster`] — the §5.2 runtime policy that keeps encoder and
//!   decoder workloads consistent under varying sequence lengths.
//! * [`monotonicity`] — measurement of non-monotonic points used to
//!   regenerate Table 5.
//! * [`Engine`] — the batteries-included entry point: profile a (model,
//!   cluster) pair once, then schedule for any workload and latency bound.
//!
//! # Quickstart
//!
//! ```
//! use exegpt::Engine;
//! use exegpt_cluster::ClusterSpec;
//! use exegpt_dist::LengthDist;
//! use exegpt_model::ModelConfig;
//! use exegpt_sim::Workload;
//! use exegpt_units::Secs;
//!
//! // OPT-13B on four A40s, serving a translation-like workload.
//! let engine = Engine::builder()
//!     .model(ModelConfig::opt_13b())
//!     .cluster(ClusterSpec::a40_cluster().subcluster(4)?)
//!     .workload(Workload::new(
//!         LengthDist::truncated_normal(128.0, 81.0, 256)?,
//!         LengthDist::truncated_normal(128.0, 68.0, 320)?,
//!     ))
//!     .build()?;
//!
//! // Maximize throughput while finishing a 99th-percentile-length
//! // sequence within 30 seconds.
//! let schedule = engine.schedule(Secs::new(30.0))?;
//! assert!(schedule.estimate.latency <= Secs::new(30.0) * 1.05);
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
        clippy::as_conversions,
        clippy::float_cmp,
        clippy::let_underscore_must_use
    ),
    deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)
)]

pub mod bnb;
mod dynamic;
mod engine;
mod error;
mod invariants;
pub mod monotonicity;
mod scheduler;
pub mod search;

pub use dynamic::DynamicAdjuster;
pub use engine::{Engine, EngineBuilder, Replan};
pub use error::ScheduleError;
pub use invariants::{InvariantReport, PlanInvariants};
pub use scheduler::{Policy, Schedule, Scheduler, SchedulerOptions};

// Re-export the configuration vocabulary so `exegpt` is self-contained for
// typical users.
pub use exegpt_sim::{
    Estimate, RraConfig, ScheduleConfig, Simulator, TpConfig, WaaConfig, WaaVariant, Workload,
};
