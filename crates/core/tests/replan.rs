//! A replan is the certified search on an engine that kept its evaluation
//! cache across the change. For every shipped replan scenario (workload
//! drift, device failure, recovery) the replanned plan must be what
//! branch-and-bound over every task chose, the plan invariants must hold on
//! it, and the drift replan must be `schedule_with` on the same engine in
//! `config`, `estimate` and `evals`. What the certified search saves is
//! gated here in evaluation counts, which are deterministic; its wall-clock
//! cost is measured by the `serve-adapt` and `sched-paper` workloads of
//! `benchmark/`.
//!
//! The live `schedule()` certifies most tasks away, so it is not an
//! every-task reference. Both the plans and the evaluation gates are checked
//! against what branch-and-bound over every task of the portfolio chose and
//! evaluated on these scenarios, pinned below.

use std::hash::Hasher;
use std::sync::OnceLock;

use exegpt::{Engine, PlanInvariants, Policy, Replan, Schedule, ScheduleConfig, SchedulerOptions};
use exegpt_cluster::ClusterSpec;
use exegpt_dist::{FnvHasher, LengthDist};
use exegpt_model::ModelConfig;
use exegpt_sim::Workload;
use exegpt_units::Secs;

/// OPT-13B on four A40s serving the paper's summarization task S, profiled
/// once for the whole suite.
fn engine_task_s() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        Engine::builder()
            .model(ModelConfig::opt_13b())
            .cluster(ClusterSpec::a40_cluster().subcluster(4).expect("fits"))
            .workload(task_s())
            .build()
            .expect("builds")
    })
}

fn task_s() -> Workload {
    Workload::new(
        LengthDist::truncated_normal(256.0, 252.0, 512).expect("valid"),
        LengthDist::truncated_normal(32.0, 13.0, 80).expect("valid"),
    )
}

/// Task S with its output lengths drifted 1.5x (the shift experiments).
fn task_s_drifted() -> Workload {
    Workload::new(
        LengthDist::truncated_normal(256.0, 252.0, 512).expect("valid"),
        LengthDist::truncated_normal(48.0, 19.5, 120).expect("valid"),
    )
}

/// A plan as pinned: its `config.describe()` text and an FNV-1a digest of
/// its estimate's bits.
type Pinned = (&'static str, u64);

/// What branch-and-bound over every task chose, pinned before the certified
/// sweep. Task S on 4×A40 (the incumbent, and the recovery's target) and
/// task S drifted ×1.5 on 4×A40 give the same plan at L_B = 10 s, 30 s and
/// ∞; the fault leaves task S on three A40s; the restricted replan searches
/// only the policy family the incumbent does not belong to.
const EXHAUSTIVE_TASK_S: Pinned = ("WAA-C(B_E=2, B_m=1, TP=1x0)", 0xd9b3_7ed0_1b55_eab4);
const EXHAUSTIVE_DRIFT: Pinned = ("WAA-C(B_E=1, B_m=1, TP=2x2)", 0x6e3f_cb98_58d2_9a21);
const EXHAUSTIVE_FAULT: Pinned = ("WAA-C(B_E=2, B_m=1, TP=1x0)", 0xcc7a_0b8f_bcc5_d982);
const EXHAUSTIVE_RESTRICTED: Pinned = ("RRA(B_E=22, N_D=2, TP=4x4)", 0xc807_5d39_0978_7869);

/// `s` as pinned. `evals`/`cache_hits` are left out: the every-task search
/// evaluated more.
fn pinned(s: &Schedule) -> (String, u64) {
    let est = &s.estimate;
    let mut h = FnvHasher::default();
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
    (s.config.describe(), h.finish())
}

fn assert_pinned(what: &str, s: &Schedule, want: Pinned) {
    assert_eq!(pinned(s), (want.0.to_owned(), want.1), "{what} left the every-task plan");
}

/// The replan must be the live search on the same engine in `config`,
/// `estimate` and `evals` (`cache_hits` differ: the second run finds the
/// first's evaluations cached), both must be the plan that branch-and-bound
/// over every task chose (`want`), and the plan must satisfy the runtime
/// plan invariants on the engine that will serve it. Returns the live
/// search's schedule.
fn assert_replays_full_search(
    engine: &Engine,
    replan: &Replan,
    opts: &SchedulerOptions,
    want: Pinned,
) -> Schedule {
    assert!(!replan.fell_back, "there is no second path to fall back to");
    let full = engine.schedule_with(opts).expect("full search feasible");
    let (r, f) = (&replan.schedule, &full);
    assert_eq!((r.config, &r.estimate, r.evals), (f.config, &f.estimate, f.evals));
    assert_pinned("replan", r, want);
    PlanInvariants::check(engine.simulator(), r).expect("plan invariants hold");
    full
}

/// Evaluations of branch-and-bound over every task (L_B = 30 s), as the
/// scheduler ran it before the certified sweep: task S drifted ×1.5 on
/// 4×A40, task S on the three survivors of a 1-GPU fault, and task S on
/// 4×A40 (the recovery's target).
const EXHAUSTIVE_DRIFT_EVALS: usize = 4944;
const EXHAUSTIVE_FAULT_EVALS: usize = 2564;
const EXHAUSTIVE_RECOVERY_EVALS: usize = 6832;

/// The search evaluated at most `1/fraction` of `exhaustive`. `evals`
/// counts every estimate lookup, hit or miss, so it does not depend on
/// what the shared cache already holds.
fn assert_evals_within(scenario: &str, s: &Schedule, exhaustive: usize, fraction: usize) {
    assert!(
        s.evals * fraction <= exhaustive,
        "{scenario}: evaluated {} configurations, more than 1/{fraction} of the {exhaustive} of a \
         search of every task",
        s.evals
    );
}

#[test]
fn drift_replans_match_the_full_search() {
    for bound in [Secs::new(10.0), Secs::new(30.0), Secs::INFINITY] {
        let opts = SchedulerOptions::bounded(bound);
        let incumbent = engine_task_s().schedule_with(&opts).expect("feasible");
        assert_pinned("incumbent", &incumbent, EXHAUSTIVE_TASK_S);
        let mut engine = engine_task_s().clone();
        let replan = engine
            .reschedule_incremental(task_s_drifted(), &incumbent, &opts)
            .expect("replan feasible");
        let full = assert_replays_full_search(&engine, &replan, &opts, EXHAUSTIVE_DRIFT);
        if bound == Secs::new(30.0) {
            assert_evals_within("drift replan", &replan.schedule, EXHAUSTIVE_DRIFT_EVALS, 3);
            assert_evals_within("drift cold search", &full, EXHAUSTIVE_DRIFT_EVALS, 4);
        }
    }
}

#[test]
fn fault_and_recovery_replans_match_the_full_search() {
    let opts = SchedulerOptions::bounded(Secs::new(30.0));
    let incumbent = engine_task_s().schedule_with(&opts).expect("feasible");

    // One device fails: replan on the survivors, on an engine that shares
    // the evaluation cache.
    let survivors = engine_task_s().simulator().cluster().survivors(1).expect("three left");
    let degraded = engine_task_s().with_cluster(survivors);
    let after_fault = degraded.schedule_with(&opts).expect("replan feasible");
    assert_pinned("fault replan", &after_fault, EXHAUSTIVE_FAULT);
    PlanInvariants::check(degraded.simulator(), &after_fault).expect("plan invariants hold");
    assert_evals_within("fault replan", &after_fault, EXHAUSTIVE_FAULT_EVALS, 3);

    // The device comes back: replan onto the original topology.
    let recovered = degraded.with_cluster(engine_task_s().simulator().cluster().clone());
    let after_recovery = recovered.schedule_with(&opts).expect("replan feasible");
    assert_pinned("recovery replan", &after_recovery, EXHAUSTIVE_TASK_S);
    PlanInvariants::check(recovered.simulator(), &after_recovery).expect("plan invariants hold");
    // Recovery lands back on the original plan.
    assert_eq!(after_recovery.config, incumbent.config);
    assert_eq!(after_recovery.estimate, incumbent.estimate);
    assert_evals_within("recovery replan", &after_recovery, EXHAUSTIVE_RECOVERY_EVALS, 4);

    // Replanning the recovery again finds every point it probes cached.
    let again = recovered.schedule_with(&opts).expect("replan feasible");
    assert_eq!(again.config, incumbent.config);
    assert!(
        again.cache_hits >= again.evals,
        "repeated recovery replan missed the warm cache ({} hits for {} evals)",
        again.cache_hits,
        again.evals
    );
}

#[test]
fn every_search_is_accounted_for() {
    let opts = SchedulerOptions::bounded(Secs::new(30.0));
    let incumbent = engine_task_s().schedule_with(&opts).expect("feasible");
    let mut engine = engine_task_s().clone();
    let replan = engine
        .reschedule_incremental(task_s_drifted(), &incumbent, &opts)
        .expect("replan feasible");
    // The certification sweep decides every task; none may be silently
    // dropped.
    assert!(replan.certified_tasks + replan.exact_tasks + replan.full_tasks > 0);
    assert!(
        replan.certified_tasks > replan.full_tasks,
        "the probe should exclude most of the portfolio cheaply \
         (certified {} vs full {})",
        replan.certified_tasks,
        replan.full_tasks
    );
}

#[test]
fn a_replan_outside_the_incumbents_policy_family_finds_the_pinned_plan() {
    let base = SchedulerOptions::bounded(Secs::new(30.0));
    let incumbent = engine_task_s().schedule_with(&base).expect("feasible");
    // Restrict the portfolio to the policy family the incumbent does not
    // belong to, so the replan must move to the other family.
    let other = match incumbent.config {
        ScheduleConfig::Rra(_) => vec![Policy::WaaCompute, Policy::WaaMemory],
        ScheduleConfig::Waa(_) => vec![Policy::Rra],
    };
    let opts = SchedulerOptions { policies: other, ..base };
    let mut engine = engine_task_s().clone();
    let replan = engine.reschedule_incremental(task_s(), &incumbent, &opts).expect("feasible");
    assert_replays_full_search(&engine, &replan, &opts, EXHAUSTIVE_RESTRICTED);
}

/// Failover replans onto `survivors(k)` for every survivable `k` on the
/// 4×A40 task-S engine: each plan passes the runtime plan invariants, and
/// fewer devices never beat the healthy plan's throughput.
#[test]
fn survivor_plans_pass_invariants_and_never_beat_healthy() {
    let healthy = engine_task_s().schedule(Secs::INFINITY).expect("feasible");
    for k in 1..4 {
        let survivors = engine_task_s().simulator().cluster().survivors(k).expect("survivable");
        let degraded = engine_task_s().with_cluster(survivors);
        let plan = degraded.schedule(Secs::INFINITY).expect("survivors admit a plan");
        PlanInvariants::check(degraded.simulator(), &plan)
            .unwrap_or_else(|e| panic!("plan on {k} lost devices breaks the invariants: {e:?}"));
        assert!(
            plan.estimate.throughput <= healthy.estimate.throughput,
            "{k} lost devices: throughput {} beats healthy {}",
            plan.estimate.throughput,
            healthy.estimate.throughput,
        );
    }
}
