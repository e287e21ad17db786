//! Table 5: percentage of non-monotonic points per control variable
//! (paper §7.8). Each variable is swept with the others fixed, repeated
//! over combinations of the fixed variables, and the fraction of steps
//! violating the expected monotone direction by more than the tolerance is
//! reported. Tolerances are percentages of the 70th-percentile latency
//! bound and of the achieved throughput, as in the paper.

use exegpt::monotonicity::{measure_sweep, Direction};
use exegpt_sim::{RraConfig, Simulator, TpConfig, WaaConfig, WaaVariant};
use exegpt_workload::Task;
use serde::Serialize;

use crate::scenarios::gpt39b_for_tab5;
use crate::support::bounds_for;
use crate::table;

/// One Table 5 cell group: violations for one (task, variable, tolerance).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Task id (S or T, as in the paper's excerpt).
    pub task: String,
    /// Schedule family.
    pub policy: String,
    /// Swept control variable.
    pub variable: String,
    /// Tolerance as a fraction (0.02 / 0.05 / 0.10).
    pub tolerance: f64,
    /// Percentage of latency-direction violations.
    pub latency_pct: f64,
    /// Percentage of throughput-direction violations.
    pub throughput_pct: f64,
}

/// The tolerances the paper reports.
pub fn tolerances() -> [f64; 3] {
    [0.02, 0.05, 0.10]
}

struct Sweep {
    policy: &'static str,
    variable: &'static str,
    latency_dir: Direction,
    throughput_dir: Direction,
    /// One (latency, throughput) series per fixed-variable combination.
    series: Vec<Vec<(f64, f64)>>,
}

fn rra_tp_combos() -> Vec<TpConfig> {
    vec![TpConfig::none(), TpConfig { degree: 2, gpus: 8 }, TpConfig { degree: 4, gpus: 16 }]
}

fn collect_sweeps(sim: &Simulator) -> Vec<Sweep> {
    let up = Direction::NonDecreasing;
    let down = Direction::NonIncreasing;
    let mut sweeps = Vec::new();

    // RRA B_E: throughput and latency both rise with the batch.
    let mut series = Vec::new();
    for n_d in [8usize, 16, 32] {
        for tp in rra_tp_combos() {
            let pts: Vec<(f64, f64)> = (1..=24)
                .filter_map(|i| {
                    sim.evaluate_rra(&RraConfig::new(4 * i, n_d, tp))
                        .ok()
                        .map(|e| (e.latency.as_secs(), e.throughput))
                })
                .collect();
            if pts.len() >= 2 {
                series.push(pts);
            }
        }
    }
    sweeps.push(Sweep {
        policy: "RRA",
        variable: "B_E",
        latency_dir: up,
        throughput_dir: up,
        series,
    });

    // RRA N_D: less frequent encoding lowers both latency and throughput.
    let mut series = Vec::new();
    for b_e in [16usize, 32, 64] {
        for tp in rra_tp_combos() {
            let pts: Vec<(f64, f64)> = (1..=32)
                .filter_map(|i| {
                    sim.evaluate_rra(&RraConfig::new(b_e, 2 * i, tp))
                        .ok()
                        .map(|e| (e.latency.as_secs(), e.throughput))
                })
                .collect();
            if pts.len() >= 2 {
                series.push(pts);
            }
        }
    }
    sweeps.push(Sweep {
        policy: "RRA",
        variable: "N_D",
        latency_dir: down,
        throughput_dir: down,
        series,
    });

    // WAA B_E.
    let mut series = Vec::new();
    for b_m in [1usize, 4, 8] {
        let pts: Vec<(f64, f64)> = (1..=12)
            .filter_map(|b_e| {
                sim.evaluate_waa(&WaaConfig::new(b_e, b_m, TpConfig::none(), WaaVariant::Compute))
                    .ok()
                    .map(|e| (e.latency.as_secs(), e.throughput))
            })
            .collect();
        if pts.len() >= 2 {
            series.push(pts);
        }
    }
    sweeps.push(Sweep {
        policy: "WAA",
        variable: "B_E",
        latency_dir: up,
        throughput_dir: up,
        series,
    });

    // WAA TP (degree fixed at 2, number of TP GPUs swept): the paper's
    // expectation is latency down, throughput down.
    let mut series = Vec::new();
    for b_e in [2usize, 4] {
        for b_m in [4usize, 8] {
            let pts: Vec<(f64, f64)> = (0..=7)
                .filter_map(|i| {
                    let tp =
                        if i == 0 { TpConfig::none() } else { TpConfig { degree: 2, gpus: 2 * i } };
                    sim.evaluate_waa(&WaaConfig::new(b_e, b_m, tp, WaaVariant::Compute))
                        .ok()
                        .map(|e| (e.latency.as_secs(), e.throughput))
                })
                .collect();
            if pts.len() >= 2 {
                series.push(pts);
            }
        }
    }
    sweeps.push(Sweep {
        policy: "WAA",
        variable: "TP",
        latency_dir: down,
        throughput_dir: down,
        series,
    });

    // WAA B_m: the paper's expectation is latency down, throughput down;
    // this is its least monotone variable and ours too.
    let mut series = Vec::new();
    for b_e in [2usize, 4] {
        let pts: Vec<(f64, f64)> = (1..=24)
            .filter_map(|b_m| {
                sim.evaluate_waa(&WaaConfig::new(b_e, b_m, TpConfig::none(), WaaVariant::Compute))
                    .ok()
                    .map(|e| (e.latency.as_secs(), e.throughput))
            })
            .collect();
        if pts.len() >= 2 {
            series.push(pts);
        }
    }
    sweeps.push(Sweep {
        policy: "WAA",
        variable: "B_m",
        latency_dir: down,
        throughput_dir: down,
        series,
    });

    sweeps
}

/// Regenerates Table 5 for tasks S and T on GPT-3 39B.
pub fn generate() -> Vec<Row> {
    let system = gpt39b_for_tab5();
    let mut rows = Vec::new();
    for task in [Task::Summarization, Task::Translation] {
        let workload = task.workload().expect("task statistics are valid");
        // Latency tolerance scale: the 70th-percentile FT bound (§7.8).
        let latency_scale = bounds_for(&system, &workload)[2].as_secs();
        let sim = system.simulator(workload);
        for sweep in collect_sweeps(&sim) {
            for tol in tolerances() {
                let (mut lat_sum, mut thr_sum, mut n) = (0.0, 0.0, 0usize);
                for pts in &sweep.series {
                    let thr_scale = pts.iter().map(|p| p.1).fold(0.0f64, f64::max);
                    let rep = measure_sweep(
                        pts,
                        sweep.latency_dir,
                        sweep.throughput_dir,
                        tol,
                        latency_scale,
                        thr_scale,
                    );
                    let w = (pts.len() - 1) as f64;
                    lat_sum += rep.latency_violations * w;
                    thr_sum += rep.throughput_violations * w;
                    n += pts.len() - 1;
                }
                let n = n.max(1) as f64;
                rows.push(Row {
                    task: task.id().to_string(),
                    policy: sweep.policy.to_string(),
                    variable: sweep.variable.to_string(),
                    tolerance: tol,
                    latency_pct: 100.0 * lat_sum / n,
                    throughput_pct: 100.0 * thr_sum / n,
                });
            }
        }
    }
    rows
}

/// Renders the rows as the paper's table layout.
pub fn render(rows: &[Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.task.clone(),
                format!("{:.0}%", r.tolerance * 100.0),
                r.policy.clone(),
                r.variable.clone(),
                format!("({:.1}, {:.1})", r.latency_pct, r.throughput_pct),
            ]
        })
        .collect();
    format!(
        "Table 5: percentage of non-monotonic points (latency, throughput)\n{}",
        table::render(&["task", "tol", "policy", "variable", "(lat%, tput%)"], &body)
    )
}
