//! Figure 8: throughput of ExeGPT (RRA — WAA's replica overhead rules it
//! out at these sizes, §7.4) versus FT on large LLMs, tasks G, C1 and C2.

use exegpt::Policy;
use exegpt_workload::Task;
use serde::Serialize;

use crate::scenarios::large_systems;
use crate::support::{bounds_for, measured_exegpt, measured_ft, speedup};
use crate::table;

/// One bar group of Figure 8.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Deployment name.
    pub system: String,
    /// Task id (G, C1, C2).
    pub task: String,
    /// Latency bound in seconds.
    pub bound: f64,
    /// FT measured throughput.
    pub ft: Option<f64>,
    /// ExeGPT-RRA measured throughput.
    pub rra: Option<f64>,
    /// RRA / FT.
    pub speedup: Option<f64>,
}

/// The tasks Figure 8 evaluates (known to require large models, §7.4).
pub fn tasks() -> [Task; 3] {
    [Task::CodeGeneration, Task::ConversationalQa1, Task::ConversationalQa2]
}

/// Regenerates Figure 8 over its deployments.
pub fn generate(num_queries: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for system in &large_systems() {
        for task in tasks() {
            let workload = task.workload().expect("task statistics are valid");
            let bounds = bounds_for(system, &workload);
            for bound in bounds {
                let ft = measured_ft(system, &workload, bound, num_queries);
                let rra = measured_exegpt(system, &workload, vec![Policy::Rra], bound, num_queries);
                rows.push(Row {
                    system: system.name.clone(),
                    task: task.id().to_string(),
                    bound: bound.as_secs(),
                    ft: ft.map(|m| m.throughput),
                    rra: rra.map(|m| m.throughput),
                    speedup: speedup(ft, rra, None),
                });
            }
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
                r.system.clone(),
                r.task.clone(),
                table::bound(r.bound),
                table::opt_f64(r.ft),
                table::opt_f64(r.rra),
                table::opt_f64(r.speedup),
            ]
        })
        .collect();
    format!(
        "Figure 8: ExeGPT (RRA) vs FT throughput (queries/s), large LLMs\n{}",
        table::render(&["system", "task", "L_B(s)", "FT", "RRA", "speedup"], &body)
    )
}
