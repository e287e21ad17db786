//! Scheduling-cost study (paper §7.7 and §5): branch-and-bound versus
//! exhaustive grid search and the black-box alternative (§5 mentions
//! Bayesian optimization; a budget-matched random search stands in for the
//! black-box family) — solution quality, evaluation counts, and wall-clock
//! time. The paper reports seconds-to-minutes for its scheduler
//! versus five-plus hours for exhaustive search; this bench reproduces the
//! same orders-of-magnitude gap in evaluation counts on the simulated
//! substrate, and the Criterion timings below are genuine wall-clock
//! measurements of the same algorithm the paper runs.

#![allow(clippy::disallowed_methods, reason = "benches measure wall-clock time")]

use criterion::{criterion_group, Criterion};
use exegpt::{RraConfig, SchedulerOptions, TpConfig};
use exegpt_bench::scenarios::opt_4xa40;
use exegpt_bench::support;
use exegpt_workload::Task;

/// Exhaustive reference: evaluate every (B_E, N_D) RRA point at TP=none.
fn exhaustive(
    sim: &exegpt_sim::Simulator,
    bound: exegpt_units::Secs,
    max_b_e: usize,
    max_n_d: usize,
) -> (f64, usize) {
    let mut best = 0.0f64;
    let mut evals = 0usize;
    for b_e in 1..=max_b_e {
        for n_d in 1..=max_n_d {
            evals += 1;
            if let Ok(est) = sim.evaluate_rra(&RraConfig::new(b_e, n_d, TpConfig::none())) {
                if est.latency <= bound {
                    best = best.max(est.throughput);
                }
            }
        }
    }
    (best, evals)
}

fn print_comparison() {
    let system = opt_4xa40();
    let workload = Task::Summarization.workload().expect("valid");
    let bound = support::bounds_for(&system, &workload)[1];
    let engine = system.engine(workload);

    // Same space for both searches: RRA over B_E x N_D at TP=none.
    let opts = SchedulerOptions {
        policies: vec![exegpt::Policy::Rra],
        max_b_e: Some(128),
        max_n_d: Some(64),
        tp_configs: Some(vec![TpConfig::none()]),
        ..SchedulerOptions::bounded(bound)
    };
    let bnb = engine.schedule_with(&opts).expect("feasible");
    let (ex_best, ex_evals) = exhaustive(engine.simulator(), bound, 128, 64);

    // Budget-matched black-box baseline over the same RRA space.
    let sim = engine.simulator();
    let rnd =
        exegpt::search::random_search(
            (1, 128),
            (1, 64),
            bound,
            bnb.evals,
            42,
            |b_e, n_d| match sim.evaluate_rra(&RraConfig::new(b_e, n_d, TpConfig::none())) {
                Ok(e) => exegpt::bnb::Perf { latency: e.latency, throughput: e.throughput },
                Err(_) => exegpt::bnb::Perf::INFEASIBLE,
            },
        );

    println!("Scheduling cost (paper 7.7): branch-and-bound vs alternatives");
    let bound_s = bound.as_secs();
    println!("setup: OPT-13B / 4xA40, task S, L_B = {bound_s:.1}s, RRA over B_E x N_D at TP=none");
    println!(
        "  branch-and-bound: throughput {:.2} q/s with {} evaluations",
        bnb.estimate.throughput, bnb.evals
    );
    println!("  exhaustive      : throughput {:.2} q/s with {} evaluations", ex_best, ex_evals);
    match rnd {
        Some(r) => println!(
            "  random search   : throughput {:.2} q/s with {} evaluations (budget-matched)",
            r.perf.throughput, r.evals
        ),
        None => println!("  random search   : found nothing feasible at the matched budget"),
    }
    println!(
        "  quality {:.1}% of exhaustive at {:.1}x fewer evaluations\n",
        100.0 * bnb.estimate.throughput / ex_best.max(f64::MIN_POSITIVE),
        ex_evals as f64 / bnb.evals.max(1) as f64
    );
}

/// Wall-clock study of the full scheduler entry point at default options
/// (all policies, all TP settings): the paper's end-to-end scheduling cost
/// (§7.7), reported as seconds and evaluations per second.
fn print_full_schedule_cost() {
    let system = opt_4xa40();
    let workload = Task::Summarization.workload().expect("valid");
    let bound = support::bounds_for(&system, &workload)[1];
    let engine = system.engine(workload.clone());
    let opts = SchedulerOptions::bounded(bound);

    // Cold: a fresh engine per run, so per-workload state (the evaluation
    // cache) starts empty, as at first deployment.
    let runs = 5;
    let mut cold = Vec::with_capacity(runs);
    let mut schedule = None;
    for _ in 0..runs {
        let fresh = engine.with_workload(workload.clone());
        let start = std::time::Instant::now();
        let s = fresh.schedule_with(&opts).expect("feasible");
        cold.push(start.elapsed());
        schedule = Some(s);
    }
    // Warm: repeat runs on one engine, as when re-scheduling for a new
    // latency bound on an unchanged workload.
    let warm_engine = engine.with_workload(workload.clone());
    warm_engine.schedule_with(&opts).expect("feasible");
    let mut warm = Vec::with_capacity(runs);
    let mut warm_schedule = None;
    for _ in 0..runs {
        let start = std::time::Instant::now();
        warm_schedule = Some(warm_engine.schedule_with(&opts).expect("feasible"));
        warm.push(start.elapsed());
    }
    let warm_schedule = warm_schedule.expect("ran");
    let schedule = schedule.expect("ran");
    let mean = |v: &[std::time::Duration]| {
        v.iter().map(std::time::Duration::as_secs_f64).sum::<f64>() / v.len() as f64
    };
    let (cold_s, warm_s) = (mean(&cold), mean(&warm));
    println!("Full Scheduler::schedule at default options (all policies/TP settings):");
    println!(
        "  cold (fresh engine): {:8.2} ms/run, {} evals ({} cache hits), {:.0} evals/s",
        cold_s * 1e3,
        schedule.evals,
        schedule.cache_hits,
        schedule.evals as f64 / cold_s
    );
    println!(
        "  warm (reused engine): {:7.2} ms/run, {} evals, {} cache hits (incl. plan/completion lookups)\n",
        warm_s * 1e3,
        warm_schedule.evals,
        warm_schedule.cache_hits
    );
}

fn bench_kernel(c: &mut Criterion) {
    let system = opt_4xa40();
    let workload = Task::Summarization.workload().expect("valid");
    let bound = support::bounds_for(&system, &workload)[1];
    let engine = system.engine(workload.clone());
    let opts = SchedulerOptions {
        policies: vec![exegpt::Policy::Rra],
        max_b_e: Some(128),
        max_n_d: Some(64),
        tp_configs: Some(vec![TpConfig::none()]),
        ..SchedulerOptions::bounded(bound)
    };
    c.bench_function("sched_cost/branch_and_bound", |b| {
        b.iter(|| engine.schedule_with(&opts).expect("feasible"))
    });
    let sim = engine.simulator().clone();
    c.bench_function("sched_cost/exhaustive_128x64", |b| {
        b.iter(|| exhaustive(&sim, bound, 128, 64))
    });
    let default_opts = SchedulerOptions::bounded(bound);
    c.bench_function("sched_cost/full_schedule_default_cold", |b| {
        b.iter(|| {
            engine.with_workload(workload.clone()).schedule_with(&default_opts).expect("feasible")
        })
    });
    c.bench_function("sched_cost/full_schedule_default_warm", |b| {
        b.iter(|| engine.schedule_with(&default_opts).expect("feasible"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernel
}

fn main() {
    print_comparison();
    print_full_schedule_cost();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
