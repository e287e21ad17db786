//! CI smoke gate for the shipped scenario configs.
//!
//! ```text
//! scenario-smoke [scenarios-dir] [--write-goldens]
//! ```
//!
//! Runs every `*.toml` under the scenarios directory (default
//! `scenarios/`, next to the workspace root) in file-name order, holds each
//! finished run to [`broken_invariants`] (request conservation, consistent
//! SLO accounting), and compares each run's FNV-1a event-log digest against
//! the committed goldens in `GOLDENS.toml`. Any broken invariant or drift —
//! a scenario whose digest moved, a new config with no golden, a golden
//! whose config vanished — fails the gate. `--write-goldens` regenerates
//! the golden file instead (for intentional behavior changes; the diff then
//! documents the move), unless a run broke an invariant.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use exegpt_scenario::{broken_invariants, format_digest, run, toml, Scenario};
use serde::Value;

/// Loads `GOLDENS.toml` as (file name, digest hex) pairs, in file order.
fn load_goldens(path: &Path) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let value = toml::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    let Value::Object(fields) = value else {
        return Err(format!("{}: expected a table of file = digest", path.display()));
    };
    fields
        .into_iter()
        .map(|(k, v)| match v {
            Value::Str(s) => Ok((k, s)),
            other => Err(format!(
                "{}: golden `{k}` must be a digest string, found {}",
                path.display(),
                other.type_name()
            )),
        })
        .collect()
}

fn render_goldens(goldens: &[(String, String)]) -> String {
    let mut out = String::from(
        "# FNV-1a event-log digests of the shipped scenarios, locked by CI.\n\
         # Regenerate with: cargo run --release --bin scenario-smoke -- scenarios --write-goldens\n",
    );
    for (name, digest) in goldens {
        out.push_str(&format!("\"{name}\" = \"{digest}\"\n"));
    }
    out
}

fn main() -> ExitCode {
    let mut dir = PathBuf::from("scenarios");
    let mut write = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--write-goldens" => write = true,
            other if other.starts_with('-') => {
                eprintln!("usage: scenario-smoke [scenarios-dir] [--write-goldens]");
                return ExitCode::FAILURE;
            }
            other => dir = PathBuf::from(other),
        }
    }

    let mut files: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "toml"))
            .filter(|p| p.file_name().is_some_and(|n| n != "GOLDENS.toml"))
            .collect(),
        Err(e) => {
            eprintln!("scenario-smoke: reading {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    files.sort();
    if files.is_empty() {
        eprintln!("scenario-smoke: no *.toml scenarios under {}", dir.display());
        return ExitCode::FAILURE;
    }

    let mut fresh: Vec<(String, String)> = Vec::new();
    let mut failed = false;
    for path in &files {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let scenario = match Scenario::load(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("scenario-smoke: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let outcome = match run(&scenario) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("scenario-smoke: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", outcome.summary);
        for why in broken_invariants(&scenario, &outcome.report) {
            eprintln!("scenario-smoke: {name}: {why}");
            failed = true;
        }
        fresh.push((name, format_digest(outcome.digest)));
    }

    let goldens_path = dir.join("GOLDENS.toml");
    if write && !failed {
        if let Err(e) = std::fs::write(&goldens_path, render_goldens(&fresh)) {
            eprintln!("scenario-smoke: writing {}: {e}", goldens_path.display());
            return ExitCode::FAILURE;
        }
        println!("goldens written to {}", goldens_path.display());
        return ExitCode::SUCCESS;
    }

    let committed = match load_goldens(&goldens_path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("scenario-smoke: {e}");
            eprintln!("hint: bootstrap with scenario-smoke {} --write-goldens", dir.display());
            return ExitCode::FAILURE;
        }
    };

    for (name, digest) in &fresh {
        match committed.iter().find(|(n, _)| n == name) {
            Some((_, want)) if want == digest => {}
            Some((_, want)) => {
                eprintln!("scenario-smoke: {name}: digest {digest} != golden {want}");
                failed = true;
            }
            None => {
                eprintln!("scenario-smoke: {name}: no committed golden");
                failed = true;
            }
        }
    }
    for (name, _) in &committed {
        if !fresh.iter().any(|(n, _)| n == name) {
            eprintln!("scenario-smoke: golden `{name}` has no scenario file");
            failed = true;
        }
    }

    if failed {
        eprintln!("scenario-smoke FAILED");
        return ExitCode::FAILURE;
    }
    println!("scenario-smoke OK ({} scenarios)", fresh.len());
    ExitCode::SUCCESS
}
