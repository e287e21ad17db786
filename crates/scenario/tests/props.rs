//! Property-based guarantees of the scenario layer.
//!
//! * Lowering: every runnable scenario lowers to plans that pass the full
//!   runtime [`PlanInvariants`] check.
//! * Conservation: executing a runnable scenario passes every run
//!   invariant — serve and fleet runs complete exactly `total` with
//!   consistent SLO accounting, replays exactly `num_queries` — and the
//!   check fires on a corrupted report.
//! * Recovery: a failure plus a straggler that both heal during the
//!   backlog drain restore the original plan verbatim, with zero lost
//!   requests.

mod arbitrary;

use arbitrary::{arbitrary_fault_recovery, arbitrary_runnable};
use exegpt::PlanInvariants;
use exegpt_scenario::{broken_invariants, lower, run, Mode, ReplayConfig, Report, Scenario};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    // Each case runs a schedule search; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lowering a runnable scenario yields plans that pass the runtime
    /// plan-invariants check on their own engines.
    #[test]
    fn lowered_plans_pass_invariants(seed in 0u64..1u64 << 32) {
        let scenario = arbitrary_runnable(&mut StdRng::seed_from_u64(seed));
        let lowered = lower(&scenario);
        prop_assert!(lowered.is_ok(), "lowering failed: {:?}", lowered.err());
        let lowered = lowered.unwrap();
        let plans = lowered.plans();
        prop_assert!(!plans.is_empty(), "a runnable scenario must produce a plan");
        for (engine, schedule) in plans {
            let check = PlanInvariants::check(engine.simulator(), schedule);
            prop_assert!(check.is_ok(), "lowered plan violates invariants: {:?}", check.err());
        }
    }

    /// Executing a runnable scenario conserves requests and keeps its SLO
    /// accounting consistent: every run invariant holds.
    #[test]
    fn runs_conserve_requests(seed in 0u64..1u64 << 32) {
        let scenario = arbitrary_runnable(&mut StdRng::seed_from_u64(seed));
        let outcome = run(&scenario);
        prop_assert!(outcome.is_ok(), "run failed: {:?}", outcome.err());
        let broken = broken_invariants(&scenario, &outcome.unwrap().report);
        prop_assert!(broken.is_empty(), "broken run invariants: {broken:?}");
    }
}

/// The invariant check is not vacuous: corrupting a finished report's
/// accounting, or pairing it with the wrong scenario, is reported.
#[test]
fn broken_reports_fail_the_run_invariants() {
    let scenario = arbitrary_fault_recovery(&mut StdRng::seed_from_u64(3));
    let mut report = run(&scenario).expect("recovery scenario runs").report;
    assert_eq!(broken_invariants(&scenario, &report), Vec::<String>::new());

    let Report::Serve(r) = &mut report else {
        panic!("recovery scenario must be a serve run");
    };
    r.requests_lost += 1;
    r.slo.checked += 1;
    let broken = broken_invariants(&scenario, &report);
    assert_eq!(broken.len(), 3, "conservation, loss and SLO checks fire: {broken:?}");
    assert!(broken[1].contains("1 requests lost"), "{broken:?}");

    let replay = ReplayConfig { num_queries: 1, scale_mean: None, scale_std: None };
    let replay = Scenario { mode: Mode::Replay(replay), ..scenario };
    assert_eq!(broken_invariants(&replay, &report).len(), 1, "mode mismatch is reported");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A GPU failure and a straggler that both recover during the backlog
    /// drain leave no request behind and restore the original schedule
    /// byte for byte.
    #[test]
    fn fault_recovery_is_exact(seed in 0u64..1u64 << 32) {
        let scenario = arbitrary_fault_recovery(&mut StdRng::seed_from_u64(seed));
        let original = {
            let lowered = lower(&scenario).expect("recovery scenario lowers");
            let plans = lowered.plans();
            plans[0].1.config.describe()
        };
        let outcome = run(&scenario);
        prop_assert!(outcome.is_ok(), "run failed: {:?}", outcome.err());
        let outcome = outcome.unwrap();
        let Report::Serve(r) = &outcome.report else {
            panic!("recovery scenario must be a serve run");
        };
        prop_assert_eq!(r.requests_lost, 0, "recovery lost requests");
        prop_assert_eq!(r.faults_injected, 4, "all four fault events must fire");
        prop_assert_eq!(
            &r.final_schedule, &original,
            "full recovery must restore the original plan"
        );
    }
}
