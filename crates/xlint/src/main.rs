//! The `xlint` command-line entry point.
//!
//! ```text
//! xlint --workspace   lint every first-party crate
//! xlint FILE...       lint explicit files
//! ```
//!
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use exegpt_xlint::{find_workspace_root, lint_files, lint_workspace};

/// Parsed command line.
#[derive(Debug, Default, PartialEq, Eq)]
struct Args {
    workspace: bool,
    paths: Vec<PathBuf>,
    help: bool,
}

fn parse_args<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
    let mut args = Args::default();
    for arg in argv {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--help" | "-h" => args.help = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    if args.help {
        return Ok(args);
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
        eprintln!("usage: xlint --workspace | xlint FILE...");
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

    match report {
        Ok(report) => {
            print!("{}", report.render_text());
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xlint: {e}");
            ExitCode::from(2)
        }
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
        // Anything outside the two flags is a usage error (exit 2), so a
        // script passing a retired flag fails instead of silently getting
        // the plain gate.
        for flag in ["--frobnicate", "--json", "--fix", "--baseline", "--write-baseline"] {
            let err = parse_args(argv(&["--workspace", flag])).expect_err(flag);
            assert_eq!(err, format!("unknown flag `{flag}`"));
        }
    }
}
