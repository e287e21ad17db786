//! NLP task workloads and dataset surrogates for the ExeGPT evaluation.
//!
//! Provides the paper's five evaluation tasks (Table 3) as ready-made
//! [`Workload`](exegpt_sim::Workload)s, a deterministic [`RequestStream`]
//! that samples concrete queries for the runner, surrogate *real-world
//! datasets* (WMT translation, Alpaca conversational Q/A, CNN/DailyMail
//! summarization — §7.5) with the length statistics and long right tails
//! the paper reports, and the latency-bound derivation protocol of §7.1.
//!
//! # Example
//!
//! ```
//! use exegpt_workload::Task;
//!
//! let t = Task::Translation;
//! let w = t.workload()?;
//! assert_eq!(w.input().max_len(), 256);
//! assert_eq!(w.output().quantile(1.0), 320);
//! # Ok::<(), exegpt_dist::DistError>(())
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

mod datasets;
mod latency;
mod requests;
mod tasks;
mod tenants;

pub use datasets::Dataset;
pub use latency::latency_bounds;
pub use requests::{BurstyStream, PoissonStream, Request, RequestStream, TimedRequest};
pub use tasks::Task;
pub use tenants::{multi_tenant_trace, ArrivalProcess, TenantRequest, TenantSpec};
