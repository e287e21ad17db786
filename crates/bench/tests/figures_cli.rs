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

/// `figures all` prints what `results_all.txt` holds and writes what
/// `results/` holds, byte for byte, so the paper tables cannot drift
/// unnoticed. After a deliberate change, regenerate both from the root of
/// the repository with `figures all --json results > results_all.txt`.
#[test]
#[ignore = "runs every experiment; ci.sh runs it in release"]
fn all_matches_the_committed_results() {
    let dir = scratch("all");
    let out = figures(&["all", "--json", dir.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = std::fs::read_to_string(root.join("results_all.txt")).expect("committed");
    let printed = String::from_utf8(out.stdout).expect("utf-8 output");
    if let Some((i, (want, got))) =
        committed.lines().zip(printed.lines()).enumerate().find(|(_, (a, b))| a != b)
    {
        panic!("results_all.txt line {}: committed `{want}`, printed `{got}`", i + 1);
    }
    assert_eq!(printed, committed, "results_all.txt and the printed run differ in length");
    let mut written: Vec<_> = std::fs::read_dir(&dir)
        .expect("json written")
        .map(|e| e.expect("entry").file_name())
        .collect();
    written.sort();
    assert!(written.len() >= 10, "{written:?}");
    for name in written {
        let fresh = std::fs::read(dir.join(&name)).expect("written");
        let committed = std::fs::read(root.join("results").join(&name))
            .unwrap_or_else(|_| panic!("results/{} is not committed", name.to_string_lossy()));
        assert!(fresh == committed, "results/{} differs from a fresh run", name.to_string_lossy());
    }
}
