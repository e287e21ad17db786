//! Regenerates every table and figure of the ExeGPT evaluation (paper §7),
//! plus the ablation and scheduling-cost studies.
//!
//! Each module computes one result set and renders it as the rows/series
//! the paper reports (`generate` then `render`). The `figures` binary is
//! the front end:
//! `cargo run -p exegpt-bench --release --bin figures -- <fig6|fig7|…|all>`
//! regenerates an experiment in full and prints it, optionally writing JSON
//! next to the text for `EXPERIMENTS.md`.
//!
//! The serving studies (`serve`, `faults`, `fleet`) have no module of their
//! own: [`serving`] runs the shipped `scenarios/*.toml` files through
//! `exegpt-scenario`, the one construction of a serve, fault or fleet run.
//!
//! Everything here is deterministic and reads no clock. Wall-clock cost
//! (schedules, replans and simulated requests per second) is measured
//! outside the workspace, by `benchmark/`.
//!
//! Absolute numbers come from the simulated cluster substrate and are not
//! expected to match the paper's testbed; the *shape* — who wins, by what
//! factor, where the crossovers fall — is the reproduction target (see
//! `EXPERIMENTS.md`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// The numeric-safety gate for library code (DESIGN.md §6.1): test builds,
// binaries and integration tests are separate crates and stay exempt.
#![cfg_attr(
    not(test),
    warn(clippy::float_cmp, clippy::let_underscore_must_use),
    deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)
)]

pub mod ablations;
pub mod fig10;
pub mod fig11;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod scenarios;
pub mod schedcost;
pub mod serving;
pub mod support;
pub mod tab4;
pub mod tab5;
pub mod tab6;
pub mod tab7;
pub mod table;
pub mod timelines;
