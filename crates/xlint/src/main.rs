//! The `xlint` command-line entry point.
//!
//! ```text
//! xlint --workspace [--baseline PATH]       lint every first-party crate
//! xlint --workspace --write-baseline PATH   regenerate the suppression budget
//! xlint FILE...                             lint explicit files
//! ```
//!
//! `--baseline` enforces the suppression-budget ratchet (rule X1):
//! per-crate pragma counts may not exceed the committed budget in
//! `xlint-baseline.toml`. Exit status: 0 clean, 1 findings, 2 usage or
//! I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use exegpt_xlint::{baseline, find_workspace_root, lint_files, lint_workspace};

/// Parsed command line.
#[derive(Debug, Default, PartialEq, Eq)]
struct Args {
    workspace: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    paths: Vec<PathBuf>,
    help: bool,
}

fn parse_args<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--baseline" => match argv.next() {
                Some(path) => args.baseline = Some(PathBuf::from(path)),
                None => return Err("--baseline requires a path".to_string()),
            },
            "--write-baseline" => match argv.next() {
                Some(path) => args.write_baseline = Some(PathBuf::from(path)),
                None => return Err("--write-baseline requires a path".to_string()),
            },
            "--help" | "-h" => args.help = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    if args.help {
        return Ok(args);
    }
    if !args.workspace && (args.baseline.is_some() || args.write_baseline.is_some()) {
        if args.paths.is_empty() {
            // A baseline only makes sense against the whole workspace; imply it.
            args.workspace = true;
        } else {
            return Err("--baseline/--write-baseline require --workspace".to_string());
        }
    }
    if args.baseline.is_some() && args.write_baseline.is_some() {
        return Err("--baseline and --write-baseline are mutually exclusive".to_string());
    }
    if !args.workspace && args.paths.is_empty() {
        return Err("pass --workspace or at least one file".to_string());
    }
    if args.workspace && !args.paths.is_empty() {
        return Err("--workspace does not take file arguments".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("xlint: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.help {
        eprintln!(
            "usage: xlint --workspace [--baseline PATH] \
             | xlint --workspace --write-baseline PATH \
             | xlint FILE..."
        );
        return ExitCode::SUCCESS;
    }

    let report = if args.workspace {
        let cwd = match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("xlint: cannot resolve current directory: {e}");
                return ExitCode::from(2);
            }
        };
        find_workspace_root(&cwd).and_then(|root| lint_workspace(&root))
    } else {
        lint_files(&args.paths)
    };

    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xlint: {e}");
            return ExitCode::from(2);
        }
    };

    let counts = baseline::suppression_counts(&report);

    if let Some(path) = &args.write_baseline {
        if let Err(e) = std::fs::write(path, baseline::render_baseline(&counts)) {
            eprintln!("xlint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "xlint: wrote suppression budget for {} unit(s) to {}",
            counts.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let mut ratchet_hints = Vec::new();
    if let Some(path) = &args.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xlint: reading {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let base = match baseline::parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("xlint: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let label = path.to_string_lossy().replace('\\', "/");
        report.findings.extend(baseline::check_budget(&label, &counts, &base));
        report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        ratchet_hints = baseline::ratchet_candidates(&counts, &base);
    }

    print!("{}", report.render_text());
    for (unit, live, budget) in &ratchet_hints {
        eprintln!(
            "xlint: note: `{unit}` uses {live} of {budget} budgeted suppressions — \
             ratchet the baseline down with --write-baseline"
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn workspace_mode_parses() {
        let a = parse_args(argv(&["--workspace"])).expect("valid");
        assert!(a.workspace && a.paths.is_empty());
    }

    #[test]
    fn file_mode_parses_without_workspace_flag() {
        // Regression: explicit files without --workspace must be accepted.
        let a = parse_args(argv(&["src/lib.rs", "src/main.rs"])).expect("valid");
        assert!(!a.workspace);
        assert_eq!(a.paths.len(), 2);
    }

    #[test]
    fn empty_invocation_is_a_usage_error() {
        assert!(parse_args(argv(&[])).is_err());
    }

    #[test]
    fn workspace_with_files_is_a_usage_error() {
        assert!(parse_args(argv(&["--workspace", "src/lib.rs"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // Anything outside the four flags is a usage error (exit 2), so a
        // script passing an old report or fix flag fails instead of
        // silently getting the text gate.
        for flag in ["--frobnicate", "--json", "--sarif", "--fix", "--apply", "--no-cache"] {
            let err = parse_args(argv(&["--workspace", flag])).expect_err(flag);
            assert_eq!(err, format!("unknown flag `{flag}`"));
        }
    }

    #[test]
    fn baseline_flags_parse() {
        let a =
            parse_args(argv(&["--workspace", "--baseline", "xlint-baseline.toml"])).expect("valid");
        assert_eq!(a.baseline, Some(PathBuf::from("xlint-baseline.toml")));
        let w = parse_args(argv(&["--workspace", "--write-baseline", "b.toml"])).expect("valid");
        assert_eq!(w.write_baseline, Some(PathBuf::from("b.toml")));
    }

    #[test]
    fn baseline_flag_combinations_are_validated() {
        assert!(parse_args(argv(&["--workspace", "--baseline"])).is_err(), "missing value");
        assert!(parse_args(argv(&["--baseline", "b.toml", "f.rs"])).is_err(), "needs workspace");
        let implied = parse_args(argv(&["--baseline", "b.toml"])).expect("implies workspace");
        assert!(implied.workspace, "baseline without files implies a workspace pass");
        let implied = parse_args(argv(&["--write-baseline", "b.toml"])).expect("implies workspace");
        assert!(implied.workspace, "write-baseline without files implies a workspace pass");
        assert!(
            parse_args(argv(&[
                "--workspace",
                "--baseline",
                "a.toml",
                "--write-baseline",
                "b.toml"
            ]))
            .is_err(),
            "mutually exclusive"
        );
    }
}
