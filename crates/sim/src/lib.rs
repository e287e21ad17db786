//! XSimulator: analytic timeline simulation of ExeGPT schedules (paper §6).
//!
//! Given a [`LayerProfile`](exegpt_profiler::LayerProfile) (per-layer times),
//! a [`Workload`] (input/output sequence-length distributions `P_E(S)` and
//! `P_D(S)`), and a schedule configuration, the simulator constructs the
//! steady-state execution timeline and reports an [`Estimate`]:
//!
//! * **throughput** — completed queries per second in steady state;
//! * **latency** — time to generate the 99th-percentile-length output
//!   sequence, the quantity the paper's latency bounds constrain (§7.1);
//! * **memory** — per-GPU parameter/KV/activation footprints, checked
//!   against device capacity (infeasible schedules are errors, which is how
//!   the paper's "NS" — not satisfiable — cases arise).
//!
//! Two schedule families are simulated:
//!
//! * [`RraConfig`] — Round-Robin Allocation: every GPU owns a slice of both
//!   encoders and decoders; the system alternates one encoding phase with
//!   `N_D` decoding iterations (paper §4.1, Figure 4a). Batch-size
//!   consistency across phases comes from the completion distribution
//!   `P_D(U)` (`exegpt_dist::CompletionDist`).
//! * [`WaaConfig`] — Workload-Aware Allocation: GPUs are split into a
//!   dedicated encoding group and a decoding group, sized by computation
//!   time (WAA-C) or memory (WAA-M); the two pipelines run asynchronously,
//!   coupled by the KV-cache handover (paper §4.1, Figures 3 and 4b–d).
//!
//! # Example
//!
//! ```
//! use exegpt_cluster::ClusterSpec;
//! use exegpt_dist::LengthDist;
//! use exegpt_model::ModelConfig;
//! use exegpt_profiler::{ProfileOptions, Profiler};
//! use exegpt_sim::{RraConfig, Simulator, TpConfig, Workload};
//! use exegpt_units::Secs;
//!
//! let model = ModelConfig::opt_13b();
//! let cluster = ClusterSpec::a40_cluster().subcluster(4)?;
//! let profile = Profiler::new(model.clone(), cluster.clone())
//!     .run(&ProfileOptions::default())?;
//! let workload = Workload::new(
//!     LengthDist::truncated_normal(128.0, 81.0, 256)?,  // task T inputs
//!     LengthDist::truncated_normal(128.0, 68.0, 320)?,  // task T outputs
//! );
//! let sim = Simulator::new(model, cluster, profile.into(), workload);
//! let est = sim.evaluate_rra(&RraConfig::new(32, 16, TpConfig::none()))?;
//! assert!(est.throughput > 0.0 && est.latency > Secs::ZERO);
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

mod cache;
mod config;
mod error;
mod estimate;
mod layout;
pub mod rra;
mod scorer;
mod simulator;
pub mod waa;

pub use cache::{EvalCacheStats, SearchOutcome};
pub use config::{RraConfig, ScheduleConfig, TpConfig, WaaConfig, WaaVariant, Workload};
pub use error::SimError;
pub use estimate::{Breakdown, Estimate, MemoryReport, Perf};
pub use layout::{Pass, PipelineLayout, StageTimes};
pub use rra::RraPlan;
pub use scorer::Scorer;
pub use simulator::Simulator;
pub use waa::WaaPlan;
