//! exegpt-serve: the online serving loop for ExeGPT schedules.
//!
//! The scheduler ([`exegpt::Scheduler`]) picks the throughput-optimal
//! schedule for an *assumed* output-length distribution; this crate closes
//! the loop at serving time. A [`ServeLoop`] plays a timed arrival stream
//! (Poisson, bursty, or trace-driven — see [`exegpt_workload`]) through the
//! same phase body the offline runner uses
//! ([`exegpt_runner::ReplicaState::run_phase`]), while a control loop
//!
//! 1. tracks per-request TTFT, per-token and end-to-end latency against
//!    [`SloTargets`],
//! 2. re-estimates the output-length distribution online over a sliding
//!    window of completions ([`DriftDetector`]),
//! 3. detects drift away from the distribution the schedule was optimized
//!    for (paper §7.6, Figure 11), and
//! 4. reschedules on the warm engine ([`exegpt::Engine::reschedule`]) and
//!    swaps the plan in at a phase boundary, charging a redeployment cost
//!    when the GPU allocation changed (§7.7), and
//! 5. optionally replays a deterministic fault scenario
//!    ([`FaultOptions`] / [`FaultSchedule`]): stragglers
//!    dilate phase timings until confirmed and evicted, failed devices
//!    abort in-flight work into a bounded-backoff retry queue, and the
//!    loop replans onto the surviving topology — reinstalling the original
//!    plan verbatim once the cluster heals.
//!
//! Counters, gauges and latency histograms live in a [`Metrics`] registry;
//! every externally observable action lands in a structured [`EventLog`]
//! whose JSONL rendering is byte-deterministic for a fixed seed.
//!
//! # Example
//!
//! ```no_run
//! use exegpt::Engine;
//! use exegpt_cluster::ClusterSpec;
//! use exegpt_model::ModelConfig;
//! use exegpt_serve::{ServeLoop, ServeOptions, SloTargets};
//! use exegpt_units::Secs;
//! use exegpt_workload::{PoissonStream, Task};
//!
//! let workload = Task::Translation.workload()?;
//! let engine = Engine::builder()
//!     .model(ModelConfig::opt_13b())
//!     .cluster(ClusterSpec::a40_cluster().subcluster(4)?)
//!     .workload(workload.clone())
//!     .build()?;
//! let schedule = engine.schedule(Secs::INFINITY)?;
//!
//! let opts = ServeOptions { slo: SloTargets::e2e(Secs::new(60.0)), ..ServeOptions::default() };
//! let arrivals: Vec<_> = PoissonStream::new(&workload, 10.0, 7).take(500).collect();
//! let report = ServeLoop::new(engine, &schedule.config, opts)?.run(arrivals)?;
//! println!("p99 e2e = {:.2}s", report.e2e.unwrap().p99);
//! println!("SLO violation rate = {:.1}%", report.slo.violation_rate() * 100.0);
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

mod drift;
mod error;
mod events;
mod faults;
mod metrics;
mod server;
mod slo;
mod traffic;

pub use drift::{DriftCheck, DriftDetector, DriftOptions};
pub use error::ServeError;
pub use events::{Event, EventLog, Label};
pub use faults::{
    FaultError, FaultEvent, FaultKind, FaultOptions, FaultSchedule, StragglerOptions,
};
pub use metrics::{CounterId, GaugeId, HistogramId, Metrics, MetricsSnapshot};
pub use server::{
    Completion, LatencySamples, ReplicaSession, ServeLoop, ServeOptions, ServeReport, StepOutcome,
};
pub use slo::{SloCheck, SloOutcome, SloTargets};
pub use traffic::poisson_with_shift;
