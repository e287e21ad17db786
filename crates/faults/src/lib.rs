//! exegpt-faults: deterministic fault injection for the simulated cluster.
//!
//! ExeGPT's scheduler assumes a healthy, fixed topology; production traffic
//! does not. This crate models the gap as *data*: a [`FaultSchedule`] is a
//! validated list of timed events — [`FaultKind::GpuFail`],
//! [`FaultKind::GpuSlowdown`], [`FaultKind::LinkDegrade`],
//! [`FaultKind::GpuRecover`] — that a consumer replays against a virtual
//! clock. Because everything runs in virtual time, a failure scenario is
//! *exactly* reproducible: two runs with the same schedule produce
//! byte-identical traces, which is something no physical testbed offers.
//!
//! The pieces:
//!
//! * [`FaultSchedule`] — the validated, time-sorted event list.
//! * [`FaultState`] — the replay state machine: [`advance`] consumes events
//!   up to a virtual time and reports what fired; [`status`] answers
//!   whether a device is healthy, [`GpuStatus::Slowed`] or
//!   [`GpuStatus::Failed`], and [`link`] how degraded the links are.
//!
//! The serving loop (`exegpt-serve`) is the one consumer and owns the
//! policy: it dilates phase timings under active stragglers and degraded
//! links, detects failures, retries in-flight work, and replans onto the
//! surviving topology (`ClusterSpec::survivors`).
//!
//! # Example
//!
//! ```
//! use exegpt_faults::{FaultEvent, FaultKind, FaultSchedule, FaultState, GpuStatus};
//!
//! let schedule = FaultSchedule::new(vec![
//!     FaultEvent { t: 10.0, kind: FaultKind::GpuFail { gpu: 2 } },
//!     FaultEvent { t: 50.0, kind: FaultKind::GpuRecover { gpu: 2 } },
//! ])?;
//! let mut state = FaultState::new(schedule, 4)?;
//! assert!(state.advance(10.0).len() == 1);
//! assert_eq!(state.status(2), GpuStatus::Failed);
//! state.advance(50.0);
//! assert_eq!(state.status(2), GpuStatus::Healthy);
//! # Ok::<(), exegpt_faults::FaultError>(())
//! ```
//!
//! [`advance`]: FaultState::advance
//! [`status`]: FaultState::status
//! [`link`]: FaultState::link

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
mod schedule;
mod state;

pub use error::FaultError;
pub use schedule::{FaultEvent, FaultKind, FaultSchedule};
pub use state::{FaultState, GpuStatus, LinkStatus};
