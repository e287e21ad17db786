//! Figure 11: scheduling with limited/incorrect distribution information
//! (§7.6). The WAA schedule chosen for the base translation workload is
//! executed against shifted *actual* distributions — average, standard
//! deviation and skewness changed one at a time — and compared with the
//! schedule re-optimized for each shifted distribution.

use exegpt::{Policy, ScheduleError, SchedulerOptions};
use exegpt_dist::LengthDist;
use exegpt_runner::{RunOptions, Runner};
use exegpt_sim::Workload;
use exegpt_units::Secs;
use exegpt_workload::Task;
use serde::Serialize;

use crate::scenarios::opt_4xa40;
use crate::support::bounds_for;
use crate::table;

/// Which output-distribution statistic is shifted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Shift {
    /// Average length scaled by the factor.
    Average,
    /// Standard deviation scaled by the factor.
    StdDev,
    /// Skewness set to the factor (skew-normal family, Figure 11d).
    Skewness,
}

impl std::fmt::Display for Shift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Shift::Average => write!(f, "avg"),
            Shift::StdDev => write!(f, "std"),
            Shift::Skewness => write!(f, "skew"),
        }
    }
}

/// One bar of Figure 11.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Scheduling policy under study (`WAA` for the figure; `RRA` for the
    /// §7.6 text numbers).
    pub policy: String,
    /// Which statistic was shifted.
    pub shift: Shift,
    /// Scale factor (avg/std) or skewness value.
    pub factor: f64,
    /// Throughput of the *non-adjusted* schedule on the shifted traffic.
    pub non_adjusted: Option<f64>,
    /// Throughput of the schedule re-optimized for the shifted distribution.
    pub adjusted: Option<f64>,
    /// 99th-percentile latency of the non-adjusted execution, normalized to
    /// the unshifted case (the figure's gray line).
    pub p99_latency_norm: Option<f64>,
}

fn shifted_output(base: &LengthDist, shift: Shift, factor: f64) -> Option<LengthDist> {
    match shift {
        Shift::Average => base.with_scaled_mean(factor).ok(),
        Shift::StdDev => base.with_scaled_std(factor).ok(),
        Shift::Skewness => {
            LengthDist::skew_normal(base.mean(), base.std(), factor, base.max_len()).ok()
        }
    }
}

/// The factors swept per shift kind.
pub fn factors(shift: Shift) -> Vec<f64> {
    match shift {
        Shift::Average | Shift::StdDev => vec![0.7, 0.85, 1.0, 1.15, 1.3],
        Shift::Skewness => vec![-0.4, -0.2, 0.0, 0.2, 0.4],
    }
}

/// Regenerates Figure 11 for one policy group (WAA as in the figure, or
/// RRA as quoted in the §7.6 text).
pub fn generate(policies: Vec<Policy>, num_queries: usize) -> Vec<Row> {
    let system = opt_4xa40();
    let base_workload = Task::Translation.workload().expect("task statistics are valid");
    // Latency constraint: FT's bottom-30% latency (§7.6).
    let bound = bounds_for(&system, &base_workload)[1];
    let policy_name = if policies.contains(&Policy::Rra) { "RRA" } else { "WAA" };

    let engine = system.engine(base_workload.clone());
    let opts = SchedulerOptions { policies: policies.clone(), ..SchedulerOptions::bounded(bound) };
    let base_schedule = match engine.schedule_with(&opts) {
        Ok(s) => s,
        Err(ScheduleError::NoFeasibleSchedule { .. }) => {
            // Fall back to the unconstrained schedule so the study can run.
            engine
                .schedule_with(&SchedulerOptions {
                    policies: policies.clone(),
                    ..SchedulerOptions::bounded(Secs::INFINITY)
                })
                .expect("unconstrained schedule exists")
        }
        Err(e) => panic!("scheduling failed: {e}"),
    };

    // Baseline p99 for normalization: the base schedule on base traffic.
    let base_runner = Runner::from_simulator(engine.simulator().clone());
    let base_p99 = base_runner
        .run(&base_schedule.config, &RunOptions { num_queries, ..Default::default() })
        .ok()
        .map(|r| r.p99_latency());

    let mut rows = Vec::new();
    for shift in [Shift::Average, Shift::StdDev, Shift::Skewness] {
        for factor in factors(shift) {
            let Some(out) = shifted_output(base_workload.output(), shift, factor) else {
                continue;
            };
            let shifted = Workload::new(base_workload.input().clone(), out);

            // Non-adjusted: plan for the base distribution, serve the
            // shifted traffic.
            let non_adjusted = base_runner
                .run(
                    &base_schedule.config,
                    &RunOptions {
                        num_queries,
                        request_workload: Some(shifted.clone()),
                        ..Default::default()
                    },
                )
                .ok();

            // Adjusted: re-optimize for the shifted distribution (§7.6
            // notes WAA needs a re-allocation/re-deployment for this).
            let shifted_engine = engine.with_workload(shifted.clone());
            let adjusted = shifted_engine
                .schedule_with(&SchedulerOptions {
                    policies: policies.clone(),
                    ..SchedulerOptions::bounded(bound)
                })
                .ok()
                .and_then(|s| {
                    Runner::from_simulator(shifted_engine.simulator().clone())
                        .run(&s.config, &RunOptions { num_queries, ..Default::default() })
                        .ok()
                });

            rows.push(Row {
                policy: policy_name.to_string(),
                shift,
                factor,
                non_adjusted: non_adjusted.as_ref().map(|r| r.throughput),
                adjusted: adjusted.map(|r| r.throughput),
                p99_latency_norm: match (non_adjusted.as_ref(), base_p99) {
                    (Some(r), Some(b)) if b > 0.0 => Some(r.p99_latency() / b),
                    _ => None,
                },
            });
        }
    }
    rows
}

/// Renders the rows as the figure's table.
pub fn render(rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.shift.to_string(),
                format!("{:+.2}", r.factor),
                table::opt_f64(r.non_adjusted),
                table::opt_f64(r.adjusted),
                table::opt_f64(r.p99_latency_norm),
            ]
        })
        .collect();
    format!(
        "Figure 11: distribution shift, OPT-13B task T (queries/s; p99 normalized)\n{}",
        table::render(&["policy", "shift", "factor", "non-adj", "re-opt", "p99/base"], &body)
    )
}
