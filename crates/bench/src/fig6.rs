//! Figure 6: throughput of ExeGPT (RRA and WAA) versus FasterTransformer on
//! small-to-mid-sized LLMs, for tasks S, T and C1 under four latency bounds.

use exegpt::Policy;
use exegpt_workload::Task;
use serde::Serialize;

use crate::scenarios::small_mid_systems;
use crate::support::{bounds_for, measured_exegpt, measured_ft, speedup};
use crate::table;

/// One bar group of Figure 6.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Deployment name.
    pub system: String,
    /// Task id (S, T, C1).
    pub task: String,
    /// Latency bound in seconds (`inf` = unconstrained).
    pub bound: f64,
    /// FT measured throughput (queries/s); `None` = no feasible batch.
    pub ft: Option<f64>,
    /// ExeGPT-RRA measured throughput; `None` = NS.
    pub rra: Option<f64>,
    /// ExeGPT-WAA measured throughput; `None` = NS.
    pub waa: Option<f64>,
    /// best(RRA, WAA) / FT.
    pub speedup: Option<f64>,
}

/// The tasks Figure 6 evaluates (well-suited to small/mid models, §7.3).
pub fn tasks() -> [Task; 3] {
    [Task::Summarization, Task::Translation, Task::ConversationalQa1]
}

/// Regenerates Figure 6 over its deployments.
pub fn generate(num_queries: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for system in &small_mid_systems() {
        for task in tasks() {
            let workload = task.workload().expect("task statistics are valid");
            let bounds = bounds_for(system, &workload);
            for bound in bounds {
                let ft = measured_ft(system, &workload, bound, num_queries);
                let rra = measured_exegpt(system, &workload, vec![Policy::Rra], bound, num_queries);
                let waa = measured_exegpt(
                    system,
                    &workload,
                    vec![Policy::WaaCompute, Policy::WaaMemory],
                    bound,
                    num_queries,
                );
                rows.push(Row {
                    system: system.name.clone(),
                    task: task.id().to_string(),
                    bound: bound.as_secs(),
                    ft: ft.map(|m| m.throughput),
                    rra: rra.map(|m| m.throughput),
                    waa: waa.map(|m| m.throughput),
                    speedup: speedup(ft, rra, waa),
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
                table::opt_f64(r.waa),
                table::opt_f64(r.speedup),
            ]
        })
        .collect();
    format!(
        "Figure 6: ExeGPT vs FT throughput (queries/s), small-to-mid LLMs\n{}",
        table::render(&["system", "task", "L_B(s)", "FT", "RRA", "WAA", "speedup"], &body)
    )
}
