//! Runs a declarative scenario file deterministically.
//!
//! ```text
//! scenario-run <scenario.toml> [--log <out.jsonl>] [--digest-only]
//! ```
//!
//! Loads, validates, lowers, and executes the scenario, then prints the
//! deterministic summary and the FNV-1a digest of the run's event log.
//! `--log` archives the event log (JSONL for serve/fleet runs);
//! `--digest-only` prints just `<digest>  <file>` for golden comparisons.
//! Exits non-zero with a structured error — including the offending key
//! path for config mistakes — instead of panicking.

use std::path::PathBuf;
use std::process::ExitCode;

use exegpt_scenario::{format_digest, run, Scenario};

const USAGE: &str = "usage: scenario-run <scenario.toml> [--log <out.jsonl>] [--digest-only]";

struct Args {
    scenario: PathBuf,
    log: Option<PathBuf>,
    digest_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut scenario = None;
    let mut log = None;
    let mut digest_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--log" => {
                log = Some(PathBuf::from(args.next().ok_or("--log needs a path".to_string())?));
            }
            "--digest-only" => digest_only = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            other => {
                if scenario.replace(PathBuf::from(other)).is_some() {
                    return Err("exactly one scenario file expected".to_string());
                }
            }
        }
    }
    let scenario = scenario.ok_or(USAGE)?;
    Ok(Args { scenario, log, digest_only })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let scenario = match Scenario::load(&args.scenario) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("scenario-run: {}: {e}", args.scenario.display());
            return ExitCode::FAILURE;
        }
    };

    let outcome = match run(&scenario) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("scenario-run: {}: {e}", args.scenario.display());
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &args.log {
        if let Err(e) = std::fs::write(path, &outcome.log) {
            eprintln!("scenario-run: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if args.digest_only {
        println!("{}  {}", format_digest(outcome.digest), args.scenario.display());
    } else {
        print!("{}", outcome.summary);
    }
    ExitCode::SUCCESS
}
