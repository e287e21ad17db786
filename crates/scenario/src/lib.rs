//! Declarative scenarios: config-driven clusters, workloads, faults, and
//! SLOs for the whole ExeGPT stack.
//!
//! A TOML scenario file describes a complete run — model, cluster,
//! workload distributions, scheduler constraints, arrival process, SLO
//! classes, fault schedule, seed — and lowers onto the existing
//! engine/serve/fleet/runner stack. Lowering is the one way the repo
//! builds a serve, fault or fleet run: the `figures` harness and the CI
//! goldens run the shipped files, and the wall-clock benchmark lowers its
//! own scenario templates, so every number they report comes from the
//! same construction.
//!
//! The pipeline is total, with structured errors at every stage:
//!
//! ```text
//! text --parse--> Value --decode+validate--> Scenario --lower--> engines
//!                                                        --run--> Outcome
//! ```
//!
//! * **parse** ([`Scenario::from_toml_str`]) rejects malformed text with
//!   a line number, and schema mismatches with the offending *key path*
//!   (`serve.arrivals.rate.qps`) — never a panic;
//! * **validate** ([`Scenario::validate`]) enforces the semantic rules:
//!   the field checks each schema row declares (positive rates, non-empty
//!   GPU pools) and the checks that span fields (resolvable
//!   cross-references, time-ordered, non-overlapping fault windows);
//! * **lower**/[`run`] build the real objects and execute deterministically
//!   ([`Outcome::digest`] is FNV-1a over the run's event log);
//! * **check** ([`broken_invariants`]) holds a finished run to request
//!   conservation and consistent SLO accounting.
//!
//! Scenarios are only ever read: every schema type is written once, as a
//! field table from which its struct or enum, decode and field checks are
//! generated. Shipped configs live in `scenarios/` at the workspace root
//! with their locked digests in `scenarios/GOLDENS.toml`.

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

pub mod arbitrary;
mod decode;
mod digest;
mod error;
mod invariants;
mod lower;
pub mod schema;
mod table;
pub mod toml;

pub use digest::{fnv1a, format_digest};
pub use error::ScenarioError;
pub use invariants::broken_invariants;
pub use lower::{
    lower, lower_cluster, lower_model, lower_scheduler, lower_workload, run, FleetLowered, Lowered,
    Outcome, ReplayLowered, Report, ServeLowered,
};
pub use schema::{
    ArrivalsConfig, ClassConfig, ClusterConfig, DriftConfig, E2eSpec, FaultEventConfig,
    FaultKindConfig, FaultsConfig, FleetConfig, FleetFaultConfig, LengthDistConfig, Mode,
    ModelSpec, Names, PoolConfig, RateSpec, ReplayConfig, ReplicaConfig, ScaleConfig, Scenario,
    SchedulerConfig, ServeConfig, SloConfig, TenantArrivals, TenantConfig, TimeSpec,
    WorkloadConfig, CLUSTER_PRESETS, DISPATCH_POLICIES, MODEL_PRESETS, POLICIES, TASKS,
};

impl Scenario {
    /// Parses and validates a scenario from TOML text.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Syntax`] for malformed text (with a line number),
    /// [`ScenarioError::Parse`]/[`ScenarioError::Validate`] with the
    /// offending key path otherwise.
    pub fn from_toml_str(text: &str) -> Result<Self, ScenarioError> {
        let value = toml::parse(text)?;
        let scenario = Scenario::decode(&value)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Loads a scenario from a TOML file.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Io`] when the file cannot be read, otherwise the
    /// [`Scenario::from_toml_str`] contract.
    pub fn load(path: &std::path::Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.display().to_string(),
            why: e.to_string(),
        })?;
        Self::from_toml_str(&text)
    }
}
