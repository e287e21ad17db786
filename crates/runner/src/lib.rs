//! XRunner: the execution engine enforcing ExeGPT schedules (paper §3).
//!
//! Where [`exegpt_sim`] predicts steady-state behaviour from *expected*
//! batch compositions, this crate **executes** a schedule as a
//! discrete-event replay on the simulated cluster: individual queries with
//! *sampled* input/output lengths flow through the pipeline, terminate
//! early, have their KV-cache entries compacted, and trigger the §5.2
//! dynamic batch adjustments. Every phase/iteration is timed from the same
//! [`LayerProfile`](exegpt_profiler::LayerProfile) the scheduler used, so
//! runner-vs-simulator agreement is a meaningful validation — while the
//! runner's *measured* throughput, per-query latencies, stage-time variance
//! (Table 7) and peak memory reflect real sampled workloads, not
//! expectations.
//!
//! The same machinery executes the comparison systems in
//! `exegpt-baselines`; the [`KvTracker`] implements the three cache
//! disciplines that differentiate them (up-front reservation for
//! FasterTransformer/DSI, incremental with compaction for ExeGPT/ORCA,
//! paged for vLLM).
//!
//! # Example
//!
//! ```
//! use exegpt::{RraConfig, ScheduleConfig, TpConfig};
//! use exegpt_cluster::ClusterSpec;
//! use exegpt_model::ModelConfig;
//! use exegpt_profiler::{ProfileOptions, Profiler};
//! use exegpt_runner::{RunOptions, Runner};
//! use exegpt_workload::Task;
//!
//! let model = ModelConfig::opt_13b();
//! let cluster = ClusterSpec::a40_cluster().subcluster(4)?;
//! let profile = Profiler::new(model.clone(), cluster.clone())
//!     .run(&ProfileOptions::default())?;
//! let runner = Runner::new(model, cluster, profile.into(), Task::Translation.workload()?);
//! let report = runner.run(
//!     &ScheduleConfig::Rra(RraConfig::new(16, 16, TpConfig::none())),
//!     &RunOptions { num_queries: 200, ..RunOptions::default() },
//! )?;
//! assert!(report.throughput > 0.0);
//! assert_eq!(report.completed, 200);
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
mod exec;
mod kv;
mod pool;
mod queue;
mod replica;
mod report;
mod runner;
mod slab;

pub use error::RunError;
pub use exec::{DecodeTiming, EncodeTiming, PhaseExecutor};
pub use kv::{KvSlot, KvTracker, ReservePolicy};
pub use pool::{DecodePool, Finished, GrowthOrder};
pub use queue::AdmissionQueue;
pub use replica::{Admission, FaultFactors, PhaseRecord, ReplicaState};
pub use report::{CompletionLog, RunReport};
pub use runner::{RunOptions, Runner};
