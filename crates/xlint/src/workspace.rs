//! The workspace model: the declared crate-layering DAG and the
//! manifest-level import check behind rule L1.
//!
//! The 15-crate workspace is layered (DESIGN.md §6.1a): every crate may
//! depend only on crates in *strictly lower* layers, so the import graph
//! is a DAG by construction and a change that introduces an upward (or
//! undeclared) edge is a lint finding, not a review comment. Two probes
//! enforce the same declared layering:
//!
//! * **manifests** — `[dependencies]` entries of every `crates/*/Cargo.toml`
//!   (dev-dependencies are exempt: test code may look upward);
//! * **sources** — any `exegpt_*` / `exegpt` path mention in non-test
//!   library code (see `l1_scan` in the rules module).

use std::path::Path;

use crate::rules::{Finding, Rule};
use crate::XlintError;

/// One workspace crate: directory name under `crates/`, the identifier it
/// is imported as, and its declared layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrateInfo {
    /// Directory name under `crates/` (also the package-name suffix).
    pub dir: &'static str,
    /// The path identifier Rust code imports it as.
    pub ident: &'static str,
    /// Declared layer; imports must point strictly downward.
    pub layer: u8,
}

/// The declared layering, bottom (0) to top. Package name is
/// `exegpt-<dir>` except `core`, whose package and ident are `exegpt`.
pub const CRATES: &[CrateInfo] = &[
    CrateInfo { dir: "units", ident: "exegpt_units", layer: 0 },
    CrateInfo { dir: "dist", ident: "exegpt_dist", layer: 0 },
    CrateInfo { dir: "model", ident: "exegpt_model", layer: 0 },
    CrateInfo { dir: "xlint", ident: "exegpt_xlint", layer: 0 },
    CrateInfo { dir: "cluster", ident: "exegpt_cluster", layer: 1 },
    CrateInfo { dir: "profiler", ident: "exegpt_profiler", layer: 2 },
    CrateInfo { dir: "sim", ident: "exegpt_sim", layer: 3 },
    CrateInfo { dir: "workload", ident: "exegpt_workload", layer: 4 },
    CrateInfo { dir: "core", ident: "exegpt", layer: 5 },
    CrateInfo { dir: "runner", ident: "exegpt_runner", layer: 6 },
    CrateInfo { dir: "faults", ident: "exegpt_faults", layer: 7 },
    CrateInfo { dir: "serve", ident: "exegpt_serve", layer: 8 },
    CrateInfo { dir: "baselines", ident: "exegpt_baselines", layer: 8 },
    CrateInfo { dir: "fleet", ident: "exegpt_fleet", layer: 9 },
    CrateInfo { dir: "scenario", ident: "exegpt_scenario", layer: 10 },
    CrateInfo { dir: "bench", ident: "exegpt_bench", layer: 11 },
];

/// A compact rendering of the layer order, used in L1 suggestions.
pub const LAYER_ORDER: &str = "units/dist/model → cluster → profiler → sim → workload → \
                               core → runner → faults → serve/baselines → fleet → \
                               scenario → bench";

/// Index of the crate whose directory under `crates/` is `dir`.
pub fn crate_index_for_dir(dir: &str) -> Option<usize> {
    CRATES.iter().position(|c| c.dir == dir)
}

/// Index of the crate imported under path identifier `ident`.
pub fn crate_index_for_ident(ident: &str) -> Option<usize> {
    CRATES.iter().position(|c| c.ident == ident)
}

/// Index of the crate with Cargo package name `package`
/// (`exegpt` / `exegpt-<dir>`).
pub fn crate_index_for_package(package: &str) -> Option<usize> {
    if package == "exegpt" {
        return crate_index_for_dir("core");
    }
    package.strip_prefix("exegpt-").and_then(crate_index_for_dir)
}

/// Whether crate `from` may import crate `to` under the declared DAG:
/// strictly downward in layer (self-references are vacuously allowed).
pub fn import_allowed(from: usize, to: usize) -> bool {
    from == to || CRATES[to].layer < CRATES[from].layer
}

/// Builds the L1 finding for an upward/undeclared import edge.
pub fn layering_finding(file: &str, line: usize, from: usize, to: usize) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule: Rule::L1,
        message: format!(
            "`{}` (layer {}) must not import `{}` (layer {}): upward cross-crate edge",
            CRATES[from].dir, CRATES[from].layer, CRATES[to].dir, CRATES[to].layer,
        ),
        suggestion: format!(
            "depend only on strictly lower layers ({LAYER_ORDER}), or move the shared \
             code down a layer"
        ),
    }
}

/// Lints every `crates/*/Cargo.toml` against the declared DAG: each
/// `[dependencies]` entry naming a workspace crate must point strictly
/// downward, and every `exegpt-*` dependency must be a known crate.
/// `[dev-dependencies]` are exempt (tests may look upward).
pub fn lint_manifests(root: &Path) -> Result<Vec<Finding>, XlintError> {
    let mut findings = Vec::new();
    for info in CRATES {
        let path = root.join("crates").join(info.dir).join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // a crate listed here but absent on disk is not a lint error
        };
        let label = format!("crates/{}/Cargo.toml", info.dir);
        let me = crate_index_for_dir(info.dir).unwrap_or(0);
        findings.extend(lint_manifest_text(&label, me, &text));
    }
    Ok(findings)
}

/// The manifest check proper, split out so fixtures can feed synthetic
/// manifests. `me` is the owning crate's index into [`CRATES`].
pub fn lint_manifest_text(label: &str, me: usize, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_dependencies = false;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            // Only the real `[dependencies]` table is layered; dev- and
            // build-dependencies (and target tables) are exempt.
            in_dependencies = line == "[dependencies]";
            continue;
        }
        if !in_dependencies || !line.contains('=') {
            continue;
        }
        let key = line.split(['=', '.', ' ']).next().unwrap_or("").trim_matches('"');
        if !key.starts_with("exegpt") {
            continue;
        }
        match crate_index_for_package(key) {
            Some(to) if import_allowed(me, to) => {}
            Some(to) => findings.push(layering_finding(label, lineno + 1, me, to)),
            None => findings.push(Finding {
                file: label.to_string(),
                line: lineno + 1,
                rule: Rule::L1,
                message: format!("dependency `{key}` is not a declared workspace crate"),
                suggestion: "add the crate to the declared layering in \
                             crates/xlint/src/workspace.rs (with a layer) or remove the edge"
                    .to_string(),
            }),
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(dir: &str) -> usize {
        crate_index_for_dir(dir).expect("known crate")
    }

    #[test]
    fn declared_layers_match_the_shipped_manifests() {
        // The real manifests are checked end-to-end by the fixtures test;
        // here, pin a few edges of the declared DAG itself.
        assert!(import_allowed(idx("cluster"), idx("model")));
        assert!(import_allowed(idx("serve"), idx("faults")));
        assert!(import_allowed(idx("workload"), idx("sim")));
        assert!(import_allowed(idx("bench"), idx("fleet")));
        assert!(import_allowed(idx("bench"), idx("scenario")), "figures run scenario files");
        assert!(!import_allowed(idx("sim"), idx("workload")));
        assert!(!import_allowed(idx("core"), idx("fleet")));
        assert!(!import_allowed(idx("faults"), idx("serve")));
        assert!(!import_allowed(idx("serve"), idx("baselines")), "same layer is not an edge");
    }

    #[test]
    fn package_names_resolve_including_the_core_alias() {
        assert_eq!(crate_index_for_package("exegpt"), crate_index_for_dir("core"));
        assert_eq!(crate_index_for_package("exegpt-sim"), crate_index_for_dir("sim"));
        assert_eq!(crate_index_for_package("exegpt-nope"), None);
        assert_eq!(crate_index_for_ident("exegpt"), crate_index_for_dir("core"));
        assert_eq!(crate_index_for_ident("exegpt_fleet"), crate_index_for_dir("fleet"));
    }

    #[test]
    fn manifest_text_flags_upward_and_undeclared_edges() {
        let text = "[package]\nname = \"exegpt-sim\"\n\n[dependencies]\n\
                    exegpt-model.workspace = true\nexegpt-workload.workspace = true\n\
                    exegpt-mystery.workspace = true\nserde.workspace = true\n\n\
                    [dev-dependencies]\nexegpt-fleet.workspace = true\n";
        let f = lint_manifest_text("crates/sim/Cargo.toml", idx("sim"), text);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("workload"), "upward edge flagged: {}", f[0].message);
        assert!(f[1].message.contains("exegpt-mystery"), "undeclared dep flagged");
        assert!(f.iter().all(|x| x.rule == Rule::L1), "dev-dependency on fleet is exempt: {f:?}");
    }
}
