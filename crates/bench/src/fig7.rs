//! Figure 7: throughput comparison of the existing systems — FT, DSI, ORCA
//! and vLLM — on OPT-13B over four A40 GPUs, all five tasks, four bounds.

use exegpt_baselines::{FasterTransformer, IterationLevel, Orca};
use exegpt_runner::RunOptions;
use exegpt_workload::Task;
use serde::Serialize;

use crate::scenarios::opt_4xa40;
use crate::support::bounds_for;
use crate::table;

/// One bar group of Figure 7.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Task id.
    pub task: String,
    /// Latency bound in seconds.
    pub bound: f64,
    /// FT measured throughput; `None` = infeasible.
    pub ft: Option<f64>,
    /// DSI measured throughput.
    pub dsi: Option<f64>,
    /// ORCA measured throughput.
    pub orca: Option<f64>,
    /// vLLM measured throughput.
    pub vllm: Option<f64>,
}

/// Regenerates Figure 7.
pub fn generate(num_queries: usize) -> Vec<Row> {
    let system = opt_4xa40();
    let mut rows = Vec::new();
    for task in Task::all() {
        let workload = task.workload().expect("task statistics are valid");
        let bounds = bounds_for(&system, &workload);
        let sim = system.simulator(workload.clone());
        let ft = FasterTransformer::paper_default(sim.clone()).expect("grid builds");
        let dsi = FasterTransformer::deepspeed(sim.clone()).expect("single node");
        let orca = Orca::new(sim.clone(), IterationLevel::orca()).expect("grid builds");
        let vllm = Orca::new(sim, IterationLevel::vllm()).expect("grid builds");
        for bound in bounds {
            // Size each run to cover several batches of the planned size.
            let opts_for = |batch: usize| RunOptions {
                num_queries: num_queries.max(4 * batch),
                ..Default::default()
            };
            let run = |planned: Option<(usize, exegpt_sim::Estimate)>,
                       exec: &dyn Fn(usize, &RunOptions) -> Option<f64>| {
                planned.and_then(|(batch, _)| exec(batch, &opts_for(batch)))
            };
            rows.push(Row {
                task: task.id().to_string(),
                bound: bound.as_secs(),
                ft: run(ft.plan(bound), &|b, o| ft.run(b, o).ok().map(|r| r.throughput)),
                dsi: run(dsi.plan(bound), &|b, o| dsi.run(b, o).ok().map(|r| r.throughput)),
                orca: run(orca.plan(bound), &|b, o| orca.run(b, o).ok().map(|r| r.throughput)),
                vllm: run(vllm.plan(bound), &|b, o| vllm.run(b, o).ok().map(|r| r.throughput)),
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
                r.task.clone(),
                table::bound(r.bound),
                table::opt_f64(r.ft),
                table::opt_f64(r.dsi),
                table::opt_f64(r.orca),
                table::opt_f64(r.vllm),
            ]
        })
        .collect();
    format!(
        "Figure 7: existing systems, OPT-13B on 4xA40 (queries/s)\n{}",
        table::render(&["task", "L_B(s)", "FT", "DSI", "ORCA", "vLLM"], &body)
    )
}
