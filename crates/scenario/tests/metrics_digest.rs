//! A bit-for-bit digest of every metrics snapshot the shipped serve and
//! fleet scenarios produce.
//!
//! The golden digests in `scenarios/GOLDENS.toml` cover event logs only;
//! the counters, gauges and histogram summaries a run reports are not in
//! them. This test folds, with FNV-1a, the JSON of each `MetricsSnapshot`:
//! a serve scenario's `ServeReport.metrics`, and a fleet scenario's
//! `FleetReport.metrics` plus every replica session report's metrics. A
//! change that moves one counter, one gauge bit or one summary field moves
//! the digest.

use std::path::Path;

use exegpt_scenario::{fnv1a, run, Mode, Report, Scenario};
use exegpt_serve::MetricsSnapshot;

/// FNV-1a over the records of every shipped serve and fleet scenario. Last
/// re-pinned when the RRA decode sum became a closed form: no counter
/// moved, and latency summaries moved in their last digits (relative
/// 1.8e-12 at most).
const PINNED: u64 = 0x9bd0_1080_2ed6_0dd1;

fn json(m: &MetricsSnapshot) -> String {
    serde_json::to_string(m).expect("metrics snapshots serialize")
}

/// One line per metrics snapshot of every shipped serve and fleet
/// scenario, in file-name order, and the number of scenarios covered.
fn records() -> (Vec<String>, usize) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("scenarios dir exists")
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".toml") && n != "GOLDENS.toml")
        .collect();
    files.sort();
    let (mut out, mut covered) = (Vec::new(), 0);
    for file in &files {
        let scenario = Scenario::load(&dir.join(file)).expect("shipped scenario loads");
        if matches!(scenario.mode, Mode::Replay(_)) {
            continue;
        }
        covered += 1;
        match run(&scenario).expect("shipped scenario runs").report {
            Report::Serve(r) => out.push(format!("{file} | serve | {}", json(&r.metrics))),
            Report::Fleet(r) => {
                out.push(format!("{file} | fleet | {}", json(&r.metrics)));
                for (i, replica) in r.replicas.iter().enumerate() {
                    for (j, session) in replica.reports.iter().enumerate() {
                        out.push(format!(
                            "{file} | replica {i} session {j} | {}",
                            json(&session.metrics)
                        ));
                    }
                }
            }
            Report::Replay(_) => unreachable!("replay scenarios are skipped"),
        }
    }
    (out, covered)
}

#[test]
fn metrics_snapshots_are_pinned() {
    let (records, covered) = records();
    assert!(covered >= 9, "every shipped serve and fleet scenario is covered ({covered})");
    let got = fnv1a(&records.join("\n"));
    assert_eq!(got, PINNED, "metrics digest drifted: got {got:#018x}");
}
