//! exegpt-fleet: fleet-scale serving — multi-replica engines behind a
//! global SLO/KV-aware router.
//!
//! One [`exegpt_serve::ServeLoop`] serves one deployment. This crate
//! scales that out: a [`Fleet`] owns N replicas — heterogeneous
//! engine+schedule pairs (e.g. an A100 pool next to two A40 pools), each
//! running the *unchanged* single-replica loop body as an
//! [`exegpt_serve::ReplicaSession`] — and merges them onto one
//! deterministic virtual clock with a global event heap. On top of the
//! fabric sit the fleet-level concerns:
//!
//! * **admission & routing** — per-tenant [`SloClass`]es and a
//!   [`DispatchPolicy`] (round-robin, least-outstanding, KV-headroom-aware
//!   or SLO-aware) route every arrival of a multi-tenant trace
//!   ([`exegpt_workload::multi_tenant_trace`]) to a replica;
//! * **violation accounting** — every completion is checked against its
//!   tenant's class targets and rolled up fleet-wide
//!   ([`TenantReport`], weighted violation rate);
//! * **elasticity** — scripted [`ScaleEvent`]s spin replicas up (charged
//!   their DRAM deploy time before becoming routable) and drain them down;
//! * **failure** — the same script loses whole replicas mid-run
//!   ([`ScaleAction::Lose`]) and redeploys them ([`ScaleAction::Recover`]);
//!   a lost replica's queued and in-flight work reroutes onto the
//!   survivors with original arrival stamps, so a loss costs latency but
//!   never requests.
//!
//! Determinism: the fabric's event heap is keyed `(time, kind, replica,
//! seq)` with total-order float comparison, so a fixed trace and
//! configuration reproduce every replica's event log — and the fleet's own
//! [`FleetEventLog`] — byte for byte; a fleet of one replays the
//! single-replica serving loop's golden log verbatim.
//!
//! # Example
//!
//! ```no_run
//! use exegpt::Engine;
//! use exegpt_cluster::ClusterSpec;
//! use exegpt_fleet::{DispatchPolicy, Fleet, FleetOptions, ReplicaSpec, SloClass};
//! use exegpt_model::ModelConfig;
//! use exegpt_serve::ServeOptions;
//! use exegpt_units::Secs;
//! use exegpt_workload::{multi_tenant_trace, ArrivalProcess, Task, TenantSpec};
//!
//! let workload = Task::Translation.workload()?;
//! let engine = Engine::builder()
//!     .model(ModelConfig::opt_13b())
//!     .cluster(ClusterSpec::a40_cluster().subcluster(4)?)
//!     .workload(workload.clone())
//!     .build()?;
//! let schedule = engine.schedule(Secs::new(30.0))?;
//! let replica = |name: &str| {
//!     ReplicaSpec::new(name, engine.clone(), schedule.config, ServeOptions::default())
//! };
//! let fleet = Fleet::new(
//!     vec![replica("a40-0")?, replica("a40-1")?],
//!     FleetOptions {
//!         policy: DispatchPolicy::SloAware,
//!         classes: vec![SloClass::interactive("chat", Secs::new(60.0))],
//!         ..FleetOptions::default()
//!     },
//! )?;
//! let tenants = [TenantSpec {
//!     tenant: 0,
//!     class: 0,
//!     process: ArrivalProcess::Poisson { rate_qps: 10.0 },
//! }];
//! let trace = multi_tenant_trace(&workload, &tenants, 5_000, 7);
//! let report = fleet.run(trace)?;
//! assert_eq!(report.completed, 5_000);
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

mod autoscale;
mod error;
mod events;
mod fleet;
mod policy;
mod replica;
mod slo;

pub use autoscale::{ScaleAction, ScaleEvent};
pub use error::FleetError;
pub use events::{FleetEvent, FleetEventLog};
pub use fleet::{Fleet, FleetOptions, FleetReport};
pub use policy::{Candidate, DispatchPolicy, Router};
pub use replica::{ReplicaReport, ReplicaSpec, ReplicaState};
pub use slo::{SloClass, TenantReport};
