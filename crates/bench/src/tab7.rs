//! Table 7: variance of encoder/decoder single-stage execution times under
//! the selected RRA and WAA schedules (paper §7.9), measured by replaying
//! the schedules with sampled query lengths.

use exegpt::{Policy, SchedulerOptions};
use exegpt_runner::{RunOptions, Runner};
use exegpt_workload::Task;
use serde::Serialize;

use crate::scenarios::opt_4xa40;
use crate::support::bounds_for;
use crate::table;

/// One row of Table 7 (times in seconds).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Schedule family.
    pub schedule: String,
    /// Mean encoder-stage execution time.
    pub enc_mean: f64,
    /// ±99th-percentile half-range of encoder stage times.
    pub enc_half_range: f64,
    /// Mean decoder-stage execution time.
    pub dec_mean: f64,
    /// ±99th-percentile half-range of decoder stage times.
    pub dec_half_range: f64,
}

/// Regenerates Table 7 on OPT-13B / task S, using the bottom-30% latency
/// bound's selected schedules (a representative operating point) and enough
/// queries for many encode/decode phases.
pub fn generate(num_queries: usize) -> Vec<Row> {
    let system = opt_4xa40();
    let workload = Task::Summarization.workload().expect("task statistics are valid");
    let bound = bounds_for(&system, &workload)[1];
    let engine = system.engine(workload);
    let runner = Runner::from_simulator(engine.simulator().clone());
    let mut rows = Vec::new();
    for (name, policies) in
        [("RRA", vec![Policy::Rra]), ("WAA", vec![Policy::WaaCompute, Policy::WaaMemory])]
    {
        let opts = SchedulerOptions { policies, ..SchedulerOptions::bounded(bound) };
        let Ok(schedule) = engine.schedule_with(&opts) else { continue };
        // Variance statistics need many phases: at least a few thousand
        // queries regardless of the caller's figure-wide default.
        let nq =
            (8 * schedule.estimate.breakdown.decode_batch).max(num_queries).clamp(4000, 40_000);
        let Ok(rep) =
            runner.run(&schedule.config, &RunOptions { num_queries: nq, ..Default::default() })
        else {
            continue;
        };
        let (enc_mean, enc_half_range) = rep.encoder_stage_stats();
        let (dec_mean, dec_half_range) = rep.decoder_stage_stats();
        rows.push(Row {
            schedule: name.to_string(),
            enc_mean,
            enc_half_range,
            dec_mean,
            dec_half_range,
        });
    }
    rows
}

/// Renders the rows as the paper's table.
pub fn render(rows: &[Row]) -> String {
    let pct = |half: f64, mean: f64| {
        if mean > 0.0 {
            format!("±{:.4}, ±{:.1}%", half, 100.0 * half / mean)
        } else {
            "-".to_string()
        }
    };
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.schedule.clone(),
                format!("{:.3} ({})", r.enc_mean, pct(r.enc_half_range, r.enc_mean)),
                format!("{:.4} ({})", r.dec_mean, pct(r.dec_half_range, r.dec_mean)),
            ]
        })
        .collect();
    format!(
        "Table 7: encoder/decoder stage execution-time variance, OPT-13B task S\n{}",
        table::render(
            &["schedule", "encoder (99th pctl range)", "decoder (99th pctl range)"],
            &body
        )
    )
}
