//! CI smoke gate for incremental replanning.
//!
//! Replays the golden replan scenarios (output-distribution drift, a 1-GPU
//! fault, and the subsequent recovery) on OPT-13B / 4×A40 and enforces the
//! three properties the incremental path promises:
//!
//! 1. **No silent fallback** — every golden replan must complete through
//!    the warm-started neighborhood search (`fell_back == false`).
//! 2. **Byte-identical plans** — each replan's schedule (config *and*
//!    estimate) must equal what the full branch-and-bound search finds on
//!    the same engine state.
//! 3. **≥10× speedup** — the warm replan must beat the warm full search by
//!    at least 10× wall-clock on the same fully warm cache (minimum over
//!    several runs on both sides, so scheduler noise cannot fail the gate
//!    by inflating one side only).
//!
//! The measured numbers are archived as JSON (path from `REPLAN_SMOKE_JSON`,
//! default `target/ci-artifacts/replan-smoke.json`) for trending. Exits
//! non-zero on any violated property.

#![allow(clippy::disallowed_methods, reason = "benches measure wall-clock time")]

use std::time::{Duration, Instant};

use exegpt::{Replan, ReplanDelta, Schedule, SchedulerOptions};
use exegpt_bench::scenarios::opt_4xa40;
use exegpt_dist::LengthDist;
use exegpt_sim::Workload;
use exegpt_units::Secs;
use serde::Serialize;

const BOUND: Secs = Secs::new(30.0);
const RUNS: usize = 7;
const SPEEDUP_FLOOR: f64 = 10.0;

/// Evaluation counts of one replan scenario versus its full-search twin.
#[derive(Serialize)]
struct Scenario {
    evals: usize,
    full_evals: usize,
}

/// The archived gate measurements (`target/ci-artifacts/replan-smoke.json`).
#[derive(Serialize)]
struct Artifact {
    system: String,
    latency_bound_s: f64,
    drift: Scenario,
    fault: Scenario,
    recovery: Scenario,
    warm_full_us: f64,
    warm_replan_us: f64,
    warm_replan_evals: usize,
    warm_replan_cache_hits: usize,
    speedup: f64,
    speedup_floor: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed(), value)
}

/// Minimum wall-clock over [`RUNS`] repeats; the runs compute identical
/// values, and noise only ever inflates a run.
fn min_over<T>(mut f: impl FnMut() -> (Duration, T)) -> (Duration, T) {
    let mut best = f();
    for _ in 1..RUNS {
        let next = f();
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

/// Gate 1 + 2 for one scenario: the replan completed incrementally and its
/// schedule is byte-identical (config and estimate) to the full search's.
fn check_identical(scenario: &str, replan: &Replan, full: &Schedule) {
    assert!(!replan.fell_back, "{scenario}: incremental replan silently fell back to full search");
    assert_eq!(
        replan.schedule.config, full.config,
        "{scenario}: incremental replan chose a different plan than the full search"
    );
    assert_eq!(
        replan.schedule.estimate, full.estimate,
        "{scenario}: incremental replan certified a different estimate than the full search"
    );
    println!(
        "  {scenario}: ok — plan {} identical to full search ({} evals vs {})",
        replan.schedule.config.describe(),
        replan.schedule.evals,
        full.evals,
    );
}

fn main() {
    let system = opt_4xa40();
    let opts = SchedulerOptions::bounded(BOUND);
    let base = Workload::new(
        LengthDist::truncated_normal(256.0, 252.0, 512).expect("valid"),
        LengthDist::truncated_normal(32.0, 13.0, 80).expect("valid"),
    );
    let drifted = Workload::new(
        base.input().clone(),
        LengthDist::truncated_normal(48.0, 19.5, 120).expect("valid"),
    );
    println!("replan-smoke: {}, L_B = {:.1}s", system.name, BOUND.as_secs());

    let engine = system.engine(base.clone());
    let incumbent = engine.schedule_with(&opts).expect("feasible");

    // Drift: full search on the drifted workload vs incremental replan from
    // the stale incumbent (both start from a fresh drifted-workload cache).
    let full_drift = engine.with_workload(drifted.clone()).schedule_with(&opts).expect("feasible");
    let mut moved = engine.clone();
    let drift = moved.reschedule_incremental(drifted, &incumbent, &opts).expect("replans");
    check_identical("drift replan", &drift, &full_drift);

    // Fault: one GPU lost; the full search and the replan share the warm
    // cache, as the serve loop's fault path would.
    let survivors = engine.simulator().cluster().survivors(1).expect("degradable");
    let degraded = engine.with_cluster(survivors);
    let fault_delta = ReplanDelta { gpu_delta: -1, workload_changed: false };
    let fault = degraded.replan_from(&incumbent, fault_delta, &opts).expect("replans");
    let full_fault = degraded.schedule_with(&opts).expect("feasible");
    check_identical("fault replan", &fault, &full_fault);

    // Recovery: back to the original topology.
    let recovered = degraded.with_cluster(engine.simulator().cluster().clone());
    let recovery_delta = ReplanDelta { gpu_delta: 1, workload_changed: false };
    let recovery = recovered.replan_from(&fault.schedule, recovery_delta, &opts).expect("replans");
    check_identical("recovery replan", &recovery, &incumbent);

    // Gate 3: warm replan vs warm full search on the same fully warm cache.
    let (full_t, _) = min_over(|| timed(|| recovered.schedule_with(&opts).expect("feasible")));
    let (replan_t, warm) = min_over(|| {
        timed(|| recovered.replan_from(&fault.schedule, recovery_delta, &opts).expect("replans"))
    });
    let speedup = full_t.as_secs_f64() / replan_t.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "  warm full search {:.0} us vs warm replan {:.0} us: {speedup:.1}x (floor {SPEEDUP_FLOOR}x)",
        full_t.as_secs_f64() * 1e6,
        replan_t.as_secs_f64() * 1e6,
    );

    let artifact = Artifact {
        system: system.name.clone(),
        latency_bound_s: BOUND.as_secs(),
        drift: Scenario { evals: drift.schedule.evals, full_evals: full_drift.evals },
        fault: Scenario { evals: fault.schedule.evals, full_evals: full_fault.evals },
        recovery: Scenario { evals: recovery.schedule.evals, full_evals: incumbent.evals },
        warm_full_us: full_t.as_secs_f64() * 1e6,
        warm_replan_us: replan_t.as_secs_f64() * 1e6,
        warm_replan_evals: warm.schedule.evals,
        warm_replan_cache_hits: warm.schedule.cache_hits,
        speedup,
        speedup_floor: SPEEDUP_FLOOR,
    };
    let path = std::env::var("REPLAN_SMOKE_JSON")
        .unwrap_or_else(|_| "target/ci-artifacts/replan-smoke.json".to_string());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).expect("artifact directory");
    }
    std::fs::write(&path, serde_json::to_string_pretty(&artifact).expect("serializes"))
        .expect("artifact written");
    println!("  artifact: {path}");

    assert!(
        speedup >= SPEEDUP_FLOOR,
        "warm replan is only {speedup:.1}x faster than the warm full search \
         (floor {SPEEDUP_FLOOR}x)"
    );
    println!("replan-smoke OK");
}
