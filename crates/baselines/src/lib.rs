//! Executable models of the LLM inference systems ExeGPT is compared
//! against (paper §2, §7.2): NVIDIA FasterTransformer, DeepSpeed-Inference,
//! ORCA, and vLLM.
//!
//! Each baseline reproduces the *scheduling policy* that differentiates it —
//! which queries are batched when, what is early-terminated, how KV-cache
//! space is reserved, and what host overheads apply — and executes it on one
//! PP×TP grid (maximum TP per node, the paper's baseline configuration) over
//! ExeGPT's profile/cost substrate and runner report, so throughput/latency
//! comparisons isolate scheduling (exactly what the paper's evaluation
//! compares). Two types cover the four systems:
//!
//! * [`FasterTransformer`] — static batches; no early termination: every
//!   query in a batch decodes until the batch's longest output finishes;
//!   KV reserved up-front for the maximum output length.
//!   [`FasterTransformer::deepspeed`] is DeepSpeed-Inference: the same
//!   regime on one node (public-version tensor parallelism only, §7.2) plus
//!   a per-iteration engine overhead.
//! * [`Orca`] — iteration-level scheduling: completed queries leave and new
//!   queries join the running batch each iteration, with their (expensive)
//!   prefill executed *inside* the decoding iteration — the pipeline-bubble
//!   and latency-jitter source the paper highlights. With
//!   [`IterationLevel::vllm`] it is vLLM (the paper's stand-in for
//!   proprietary ORCA): paged KV, at most one prefill admission per
//!   iteration, and the host overhead of its Python executor.
//!
//! # Example
//!
//! ```
//! use exegpt_baselines::FasterTransformer;
//! use exegpt_cluster::ClusterSpec;
//! use exegpt_model::ModelConfig;
//! use exegpt_profiler::{ProfileOptions, Profiler};
//! use exegpt_sim::Simulator;
//! use exegpt_units::Secs;
//! use exegpt_workload::Task;
//!
//! let model = ModelConfig::opt_13b();
//! let cluster = ClusterSpec::a40_cluster().subcluster(4)?;
//! let profile = Profiler::new(model.clone(), cluster.clone())
//!     .run(&ProfileOptions::default())?;
//! let sim = Simulator::new(model, cluster, profile.into(),
//!     Task::Translation.workload()?);
//! let ft = FasterTransformer::paper_default(sim)?;
//! let (batch, est) = ft.plan(Secs::INFINITY).expect("some batch is feasible");
//! assert!(batch >= 4 && est.throughput > 0.0);
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

mod ft;
mod grid;
mod orca;

pub use ft::FasterTransformer;
pub use orca::{IterationLevel, Orca};
