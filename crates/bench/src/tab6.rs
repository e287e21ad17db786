//! Table 6: trade-off case study — the schedule and control-variable values
//! the optimizer selects for OPT-13B / task S as the latency bound relaxes
//! (paper §7.8).

use exegpt::SchedulerOptions;
use exegpt_workload::Task;
use serde::Serialize;

use crate::scenarios::opt_4xa40;
use crate::support::bounds_for;
use crate::table;

/// One row of Table 6.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Latency bound in seconds.
    pub bound: f64,
    /// Selected schedule family (`RRA` / `WAA-C` / `WAA-M`), `NS` if none.
    pub schedule: String,
    /// Selected control-variable values.
    pub config: String,
    /// Estimated latency of the selection.
    pub latency: Option<f64>,
    /// Estimated throughput of the selection.
    pub throughput: Option<f64>,
}

/// Regenerates Table 6 using the four §7.1-style bounds for this setup.
pub fn generate() -> Vec<Row> {
    let system = opt_4xa40();
    let workload = Task::Summarization.workload().expect("task statistics are valid");
    let engine = system.engine(workload.clone());
    bounds_for(&system, &workload)
        .into_iter()
        .map(|bound| match engine.schedule_with(&SchedulerOptions::bounded(bound)) {
            Ok(s) => {
                let family = match &s.config {
                    exegpt::ScheduleConfig::Rra(_) => "RRA".to_string(),
                    exegpt::ScheduleConfig::Waa(c) => match c.variant {
                        exegpt::WaaVariant::Compute => "WAA-C".to_string(),
                        exegpt::WaaVariant::Memory => "WAA-M".to_string(),
                    },
                };
                Row {
                    bound: bound.as_secs(),
                    schedule: family,
                    config: s.config.describe(),
                    latency: Some(s.estimate.latency.as_secs()),
                    throughput: Some(s.estimate.throughput),
                }
            }
            Err(_) => Row {
                bound: bound.as_secs(),
                schedule: "NS".to_string(),
                config: "-".to_string(),
                latency: None,
                throughput: None,
            },
        })
        .collect()
}

/// Renders the rows as the paper's table.
pub fn render(rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                table::bound(r.bound),
                r.schedule.clone(),
                r.config.clone(),
                table::opt_f64(r.latency),
                table::opt_f64(r.throughput),
            ]
        })
        .collect();
    format!(
        "Table 6: selected schedules, OPT-13B task S\n{}",
        table::render(
            &["L_B(s)", "schedule", "control variables", "latency(s)", "tput(q/s)"],
            &body
        )
    )
}
