//! Exit statuses of the `figures` front end: results it cannot write fail
//! the run instead of leaving stale or missing JSON behind.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("figures runs")
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_cli").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn json_results_are_written() {
    let dir = scratch("written");
    let out = figures(&["tab4", "--json", dir.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(dir.join("tab4.json")).expect("tab4.json written");
    assert!(json.contains("from_ssd"));
}

#[test]
fn unwritable_json_dir_fails_the_run() {
    let dir = scratch("unwritable");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "").expect("blocker file");
    let target = file.join("results");
    let out = figures(&["tab4", "--json", target.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot create"));
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = figures(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `fig99`"), "{stderr}");
    assert!(stderr.contains("ablations schedcost all"), "{stderr}");
}
