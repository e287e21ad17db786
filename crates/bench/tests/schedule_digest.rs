//! Bit-for-bit lock on what the scheduler chooses.
//!
//! Schedules the Figure 6 grid — four deployments × the five Table 3 tasks
//! × `bounds_for`'s four latency bounds, 80 cases — and folds each case's
//! `config.describe()` text and its estimate's bits (or `NS` when nothing
//! meets the bound) into one FNV-1a digest per deployment and portfolio:
//! the default one, and the RRA-only and WAA-only ones that Figures 6 and 8
//! schedule. The single-family portfolios pick among fewer, closer tasks,
//! so they catch a search shortcut that the default one hides behind a
//! clear winner. The search counters (`evals`, `cache_hits`) are
//! left out: a change that makes the search cheaper must leave every digest
//! unchanged, and only a deliberate change to the search or the cost model
//! may move them.
//!
//! The OPT-13B subset runs in the debug test suite. The full grid is
//! `#[ignore]`d (it profiles two 16-GPU deployments) and runs in release:
//! `cargo test --release -p exegpt-bench --test schedule_digest --
//! --include-ignored`.

use std::hash::Hasher;

use exegpt::{Policy, Schedule, ScheduleError, SchedulerOptions};
use exegpt_bench::scenarios::{small_mid_systems, System};
use exegpt_bench::support::bounds_for;
use exegpt_dist::FnvHasher;
use exegpt_workload::Task;

/// The digested portfolios: every policy, RRA only, WAA only.
fn portfolios() -> [Vec<Policy>; 3] {
    [Policy::all(), vec![Policy::Rra], vec![Policy::WaaCompute, Policy::WaaMemory]]
}

/// Pinned `(deployment, digest per portfolio, feasible cases per
/// portfolio)`, so a grid that silently turns infeasible cannot pass.
const PINNED: [(&str, [u64; 3], [usize; 3]); 4] = [
    (
        "T5-11B/8xA40",
        [0x9982_cc62_7d6a_5b17, 0x9982_cc62_7d6a_5b17, 0xcc9a_5cf1_f665_71ec],
        [20, 20, 12],
    ),
    (
        "OPT-13B/4xA40",
        [0x5c67_1da4_916e_da1b, 0xc608_0edd_fe24_feed, 0xe25b_b13f_6cbb_0a41],
        [20, 20, 12],
    ),
    (
        "GPT-3-39B/16xA40",
        [0x9b8e_f14a_8fa9_9f0c, 0xe065_efad_968f_3d71, 0x6b66_fa51_bd24_005f],
        [20, 20, 13],
    ),
    (
        "GPT-3-101B/16xA100-80GB",
        [0x1efb_c4c4_2463_c19b, 0x8872_6f09_980b_70db, 0xfd56_38b5_c184_5972],
        [20, 20, 11],
    ),
];

/// Schedules one deployment's 20 cases under each portfolio; returns the
/// digests and how many cases are feasible.
fn digest(system: &System) -> ([u64; 3], [usize; 3]) {
    let mut h = [FnvHasher::default(); 3];
    let mut feasible = [0; 3];
    for task in Task::all() {
        let workload = task.workload().expect("task statistics are valid");
        let engine = system.engine(workload.clone());
        for bound in bounds_for(system, &workload) {
            for (p, policies) in portfolios().into_iter().enumerate() {
                let opts = SchedulerOptions { policies, ..SchedulerOptions::bounded(bound) };
                fold(&mut h[p], &mut feasible[p], &engine.schedule_with(&opts));
            }
        }
    }
    (h.map(|h| h.finish()), feasible)
}

/// Folds one case: the chosen configuration and its estimate, or `NS`.
fn fold(h: &mut FnvHasher, feasible: &mut usize, result: &Result<Schedule, ScheduleError>) {
    let Ok(s) = result else {
        h.write(b"NS");
        return;
    };
    *feasible += 1;
    h.write(s.config.describe().as_bytes());
    let est = &s.estimate;
    for bits in [
        est.latency.as_secs().to_bits(),
        est.throughput.to_bits(),
        est.breakdown.period.as_secs().to_bits(),
        est.breakdown.encode_time.as_secs().to_bits(),
        est.breakdown.decode_time.as_secs().to_bits(),
        u64::try_from(est.breakdown.decode_batch).expect("fits"),
    ] {
        h.write(&bits.to_le_bytes());
    }
}

fn check(system: &System) {
    let (_, want, want_feasible) = PINNED
        .into_iter()
        .find(|(name, ..)| *name == system.name)
        .unwrap_or_else(|| panic!("{} has no pinned digest", system.name));
    let (got, feasible) = digest(system);
    assert_eq!(
        (got, feasible),
        (want, want_feasible),
        "{}: digests {got:#018x?}, {feasible:?} feasible",
        system.name
    );
}

#[test]
fn opt_13b_schedules_match_the_pinned_digest() {
    let systems = small_mid_systems();
    check(systems.iter().find(|s| s.name == "OPT-13B/4xA40").expect("in the grid"));
}

#[test]
#[ignore = "full grid; runs in release in ci.sh"]
fn every_deployment_matches_its_pinned_digest() {
    for system in &small_mid_systems() {
        check(system);
    }
}
