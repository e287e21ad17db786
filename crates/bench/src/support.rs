//! Shared measurement helpers for the figure modules.
//!
//! All "measured" numbers come from discrete-event replays (the runner or a
//! baseline's `run`), not from the analytic estimates the schedulers used —
//! mirroring the paper's estimate-then-measure methodology.

use exegpt::{Policy, SchedulerOptions};
use exegpt_baselines::FasterTransformer;
use exegpt_runner::{RunOptions, Runner};
use exegpt_sim::Workload;
use exegpt_units::Secs;

use crate::scenarios::System;

/// A measured (throughput, achieved-latency) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Queries per second over the measurement window.
    pub throughput: f64,
    /// 99th-percentile per-query latency of the replay: the measured
    /// counterpart of the estimate's latency, the time to generate a
    /// 99th-percentile-length output (§7.1), which the latency bound
    /// constrains.
    pub p99_latency: f64,
}

/// Derives the paper's four latency bounds for a deployment/task from the
/// FT baseline's batch sweep (§7.1). Returns `[10%, 30%, 70%, inf]`.
pub fn bounds_for(system: &System, workload: &Workload) -> [Secs; 4] {
    let ft = FasterTransformer::paper_default(system.simulator(workload.clone()))
        .expect("baseline grid builds");
    exegpt_workload::latency_bounds(&ft.latency_sweep()).unwrap_or([Secs::INFINITY; 4])
}

/// FT planned for `bound` and replayed; `None` when no batch satisfies it.
pub fn measured_ft(
    system: &System,
    workload: &Workload,
    bound: Secs,
    num_queries: usize,
) -> Option<Measured> {
    let ft = FasterTransformer::paper_default(system.simulator(workload.clone())).ok()?;
    let (batch, _) = ft.plan(bound)?;
    // Run enough queries for several static batches so the steady-state
    // window is meaningful, and discard the ramp-up quarter.
    let num_queries = num_queries.max(4 * batch);
    let rep =
        ft.run(batch, &RunOptions { num_queries, warmup_frac: 0.25, ..Default::default() }).ok()?;
    Some(Measured { throughput: rep.throughput, p99_latency: rep.p99_latency() })
}

/// ExeGPT scheduled for `bound` with the given policy portfolio and
/// replayed; `None` when the portfolio has no feasible schedule (NS).
pub fn measured_exegpt(
    system: &System,
    workload: &Workload,
    policies: Vec<Policy>,
    bound: Secs,
    num_queries: usize,
) -> Option<Measured> {
    let engine = system.engine(workload.clone());
    let opts = SchedulerOptions { policies, ..SchedulerOptions::bounded(bound) };
    let schedule = engine.schedule_with(&opts).ok()?;
    // Cover several steady-state decode pools so the measurement window is
    // genuinely steady state (one pool draining in a single phase would
    // inflate throughput).
    let num_queries = num_queries.max(4 * schedule.estimate.breakdown.decode_batch).min(40_000);
    let runner = Runner::from_simulator(engine.simulator().clone());
    // The first ~quarter of completions covers filling the decode pool;
    // exclude that ramp from the steady-state window.
    let rep = runner
        .run(&schedule.config, &RunOptions { num_queries, warmup_frac: 0.25, ..Default::default() })
        .ok()?;
    Some(Measured { throughput: rep.throughput, p99_latency: rep.p99_latency() })
}

/// Speedup of the better ExeGPT policy over FT (`None` when either side is
/// missing).
pub fn speedup(ft: Option<Measured>, a: Option<Measured>, b: Option<Measured>) -> Option<f64> {
    let best = match (a, b) {
        (Some(x), Some(y)) => Some(x.throughput.max(y.throughput)),
        (Some(x), None) => Some(x.throughput),
        (None, Some(y)) => Some(y.throughput),
        (None, None) => None,
    }?;
    Some(best / ft?.throughput)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::opt_4xa40;
    use exegpt_workload::Task;

    #[test]
    fn bounds_are_ordered() {
        let sys = opt_4xa40();
        let w = Task::Summarization.workload().expect("valid");
        let b = bounds_for(&sys, &w);
        assert!(b[0] <= b[1] && b[1] <= b[2]);
        assert!(!b[3].is_finite());
    }

    #[test]
    fn speedup_combines_policies() {
        let m = |t| Some(Measured { throughput: t, p99_latency: 1.0 });
        assert_eq!(speedup(m(2.0), m(4.0), m(6.0)), Some(3.0));
        assert_eq!(speedup(m(2.0), None, m(6.0)), Some(3.0));
        assert_eq!(speedup(None, m(4.0), None), None);
        assert_eq!(speedup(m(2.0), None, None), None);
    }
}
