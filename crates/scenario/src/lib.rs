//! Declarative scenarios: config-driven clusters, workloads, faults, and
//! SLOs for the whole ExeGPT stack.
//!
//! A scenario file (TOML or JSON) describes a complete run — model,
//! cluster, workload distributions, scheduler constraints, arrival
//! process, SLO classes, fault schedule, seed — and lowers onto the
//! existing engine/serve/fleet/runner stack. Lowering is the one way the
//! repo builds a serve, fault or fleet run: the `figures` harness and the
//! CI goldens run the shipped files, and the wall-clock benchmark lowers
//! its own scenario templates, so every number they report comes from the
//! same construction.
//!
//! The pipeline is total, with structured errors at every stage:
//!
//! ```text
//! text --parse--> Value --decode+validate--> Scenario --lower--> engines
//!                                                        --run--> Outcome
//! ```
//!
//! * **parse** ([`Scenario::from_toml_str`] / [`Scenario::from_json_str`])
//!   rejects malformed text with a line number, and schema mismatches with
//!   the offending *key path* (`serve.arrivals.rate.qps`) — never a panic;
//! * **validate** ([`Scenario::validate`]) enforces the semantic rules:
//!   the field checks each schema row declares (positive rates, non-empty
//!   GPU pools) and the checks that span fields (resolvable
//!   cross-references, time-ordered, non-overlapping fault windows);
//! * **lower**/[`run`] build the real objects and execute deterministically
//!   ([`Outcome::digest`] is FNV-1a over the run's event log);
//! * **check** ([`broken_invariants`]) holds a finished run to request
//!   conservation and consistent SLO accounting.
//!
//! Every schema type is written once, as a field table from which its
//! struct or enum, decode, encode and field checks are generated.
//! Serialization is canonical and lossless: `decode(encode(s)) == s`
//! exactly, including boundary floats — the identity the property suite
//! pins. Shipped configs live in `scenarios/` at the workspace root with
//! their locked digests in `scenarios/GOLDENS.toml`.

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

use serde::Serialize;

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

    /// Parses and validates a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Same contract as [`Scenario::from_toml_str`] (JSON syntax errors
    /// report a byte offset instead of a line).
    pub fn from_json_str(text: &str) -> Result<Self, ScenarioError> {
        let value: serde::Value = serde_json::from_str(text)
            .map_err(|e| ScenarioError::Syntax { line: 0, why: e.to_string() })?;
        let scenario = Scenario::decode(&value)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Renders the scenario as canonical TOML (parses back identically).
    ///
    /// # Errors
    ///
    /// Returns an error only for value shapes TOML cannot spell (the
    /// schema never produces one).
    pub fn to_toml_string(&self) -> Result<String, ScenarioError> {
        toml::render(&self.to_value())
    }

    /// Renders the scenario as canonical JSON (parses back identically).
    pub fn to_json_string(&self) -> String {
        let mut value = self.to_value();
        stringify_non_finite(&mut value);
        serde_json::to_string_pretty(&value).unwrap_or_else(|_| "{}".to_string())
    }

    /// Loads a scenario from a `.toml` or `.json` file (by extension;
    /// anything but `.json` is read as TOML).
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
        if path.extension().is_some_and(|e| e == "json") {
            Self::from_json_str(&text)
        } else {
            Self::from_toml_str(&text)
        }
    }
}

/// JSON cannot spell `inf`/`nan`; replace non-finite floats with their
/// TOML spellings (the decoder accepts both forms, keeping the JSON round
/// trip lossless).
fn stringify_non_finite(v: &mut serde::Value) {
    match v {
        serde::Value::F64(x) if !x.is_finite() => {
            let spelling = if x.is_nan() {
                "nan"
            } else if *x > 0.0 {
                "inf"
            } else {
                "-inf"
            };
            *v = serde::Value::Str(spelling.to_string());
        }
        serde::Value::Array(items) => items.iter_mut().for_each(stringify_non_finite),
        serde::Value::Object(fields) => {
            fields.iter_mut().for_each(|(_, v)| stringify_non_finite(v));
        }
        _ => {}
    }
}
