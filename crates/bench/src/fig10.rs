//! Figure 10: ExeGPT versus FT on the real-world datasets (WMT, Alpaca,
//! CNN/DailyMail surrogates, §7.5): 10% of each dataset estimates the
//! length distributions, the remaining 90% is served.

use exegpt::Policy;
use exegpt_units::Secs;
use exegpt_workload::Dataset;
use serde::Serialize;

use crate::scenarios::{gpt39b_16xa40, opt_4xa40, System};
use crate::support::{bounds_for, measured_exegpt, measured_ft, speedup};
use crate::table;

/// One bar group of Figure 10.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Deployment name.
    pub system: String,
    /// Dataset name (WMT, Alpaca, CNN).
    pub dataset: String,
    /// Latency bound in seconds.
    pub bound: f64,
    /// Input↔output length correlation of the dataset sample.
    pub correlation: f64,
    /// FT measured throughput.
    pub ft: Option<f64>,
    /// ExeGPT-RRA measured throughput.
    pub rra: Option<f64>,
    /// ExeGPT-WAA measured throughput.
    pub waa: Option<f64>,
    /// best(RRA, WAA) / FT.
    pub speedup: Option<f64>,
}

/// The dataset surrogates at evaluation size.
pub fn datasets(size: usize, seed: u64) -> Vec<Dataset> {
    vec![
        Dataset::wmt(size, seed),
        Dataset::alpaca(size, seed + 1),
        Dataset::cnn_dailymail(size, seed + 2),
    ]
}

/// Regenerates Figure 10 (small-to-mid models only, as in the paper).
pub fn generate(num_queries: usize) -> Vec<Row> {
    let systems: Vec<System> = vec![opt_4xa40(), gpt39b_16xa40()];
    let mut rows = Vec::new();
    for system in &systems {
        for dataset in datasets(4000, 1234) {
            // 10% to estimate the distribution, 90% to serve (§7.5). The
            // serving side samples from the evaluation split's empirical
            // distribution (input-length randomization across batches, as
            // the paper applies for correlated tasks).
            let (estimate_split, eval_split) = dataset.split(0.1);
            let sched_workload = estimate_split.estimate_workload().expect("non-empty split");
            let eval_workload = eval_split.estimate_workload().expect("non-empty split");

            let ft_bounds = bounds_for(system, &sched_workload);
            // The paper reports two bounds for this figure: a tight one and
            // the unconstrained case.
            for bound in [ft_bounds[1], Secs::INFINITY] {
                let ft = measured_ft(system, &eval_workload, bound, num_queries);
                let rra =
                    measured_exegpt(system, &eval_workload, vec![Policy::Rra], bound, num_queries);
                let waa = measured_exegpt(
                    system,
                    &eval_workload,
                    vec![Policy::WaaCompute, Policy::WaaMemory],
                    bound,
                    num_queries,
                );
                rows.push(Row {
                    system: system.name.clone(),
                    dataset: dataset.name().to_string(),
                    bound: bound.as_secs(),
                    correlation: dataset.correlation(),
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
                r.dataset.clone(),
                table::bound(r.bound),
                format!("{:.2}", r.correlation),
                table::opt_f64(r.ft),
                table::opt_f64(r.rra),
                table::opt_f64(r.waa),
                table::opt_f64(r.speedup),
            ]
        })
        .collect();
    format!(
        "Figure 10: real-world datasets (queries/s)\n{}",
        table::render(
            &["system", "dataset", "L_B(s)", "corr", "FT", "RRA", "WAA", "speedup"],
            &body
        )
    )
}
