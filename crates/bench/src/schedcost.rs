//! Scheduling cost (paper §7.7 and §5): branch-and-bound versus exhaustive
//! grid search and a black-box alternative (§5 mentions Bayesian
//! optimization; a budget-matched random search stands in for the black-box
//! family), compared by solution quality and evaluation count.
//!
//! The paper reports seconds-to-minutes for its scheduler versus five-plus
//! hours for exhaustive search; this study reproduces the gap in evaluation
//! counts on the simulated substrate. Wall-clock cost is measured outside
//! the workspace, by the `sched-paper` workload of `benchmark/`.

use exegpt::{Policy, RraConfig, ScheduleConfig, SchedulerOptions, TpConfig};
use exegpt_sim::Simulator;
use exegpt_units::Secs;
use exegpt_workload::Task;
use serde::Serialize;

use crate::scenarios::opt_4xa40;
use crate::support::bounds_for;

const BRANCH_AND_BOUND: &str = "branch-and-bound";
const EXHAUSTIVE: &str = "exhaustive";
const RANDOM: &str = "random search";

/// The searched space: RRA over `B_E` × `N_D` at TP=none.
const MAX_B_E: usize = 128;
const MAX_N_D: usize = 64;

/// One search strategy's result over the same space and bound.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Row {
    /// Strategy: `branch-and-bound`, `exhaustive` or `random search`
    /// (budget-matched to branch-and-bound's evaluations).
    pub search: String,
    /// Latency bound L_B in seconds.
    pub bound: f64,
    /// Best throughput found under the bound (queries/s); `None` when the
    /// search found nothing feasible.
    pub throughput: Option<f64>,
    /// Configurations evaluated.
    pub evals: usize,
}

/// Exhaustive reference: evaluates every (B_E, N_D) point.
fn exhaustive(sim: &Simulator, bound: Secs) -> (f64, usize) {
    let mut best = 0.0f64;
    let mut evals = 0usize;
    for b_e in 1..=MAX_B_E {
        for n_d in 1..=MAX_N_D {
            evals += 1;
            let p = sim.score(&ScheduleConfig::Rra(RraConfig::new(b_e, n_d, TpConfig::none())));
            if p.satisfies(bound) {
                best = best.max(p.throughput);
            }
        }
    }
    (best, evals)
}

/// Runs the three searches on OPT-13B / 4×A40, task S, at the 30 % bound.
pub fn generate() -> Vec<Row> {
    let system = opt_4xa40();
    let workload = Task::Summarization.workload().expect("task statistics are valid");
    let bound = bounds_for(&system, &workload)[1];
    let engine = system.engine(workload);
    let sim = engine.simulator();

    let opts = SchedulerOptions {
        policies: vec![Policy::Rra],
        max_b_e: Some(MAX_B_E),
        max_n_d: Some(MAX_N_D),
        tp_configs: Some(vec![TpConfig::none()]),
        ..SchedulerOptions::bounded(bound)
    };
    let bnb = engine.schedule_with(&opts).expect("feasible");
    let (ex_best, ex_evals) = exhaustive(sim, bound);
    let rnd = exegpt::search::random_search(
        (1, MAX_B_E),
        (1, MAX_N_D),
        bound,
        bnb.evals,
        42,
        |b_e, n_d| sim.score(&ScheduleConfig::Rra(RraConfig::new(b_e, n_d, TpConfig::none()))),
    );

    let row = |search: &str, throughput, evals| Row {
        search: search.to_string(),
        bound: bound.as_secs(),
        throughput,
        evals,
    };
    vec![
        row(BRANCH_AND_BOUND, Some(bnb.estimate.throughput), bnb.evals),
        row(EXHAUSTIVE, Some(ex_best), ex_evals),
        match rnd {
            Some(r) => row(RANDOM, Some(r.perf.throughput), r.evals),
            None => row(RANDOM, None, bnb.evals),
        },
    ]
}

/// Renders the comparison, closing with branch-and-bound's quality and
/// evaluation savings relative to the exhaustive search.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from("Scheduling cost (paper 7.7): branch-and-bound vs alternatives\n");
    let bound = rows.first().map_or(f64::NAN, |r| r.bound);
    out.push_str(&format!(
        "setup: OPT-13B / 4xA40, task S, L_B = {bound:.1}s, RRA over B_E x N_D at TP=none\n"
    ));
    for r in rows {
        let line = match (r.throughput, r.search.as_str()) {
            (Some(t), RANDOM) => {
                format!("throughput {t:.2} q/s with {} evaluations (budget-matched)", r.evals)
            }
            (Some(t), _) => format!("throughput {t:.2} q/s with {} evaluations", r.evals),
            (None, _) => "found nothing feasible at the matched budget".to_string(),
        };
        out.push_str(&format!("  {:<16}: {line}\n", r.search));
    }
    let find = |search: &str| rows.iter().find(|r| r.search == search);
    if let (Some(bnb), Some(ex)) = (find(BRANCH_AND_BOUND), find(EXHAUSTIVE)) {
        out.push_str(&format!(
            "  quality {:.1}% of exhaustive at {:.1}x fewer evaluations\n",
            100.0 * bnb.throughput.unwrap_or(0.0)
                / ex.throughput.unwrap_or(0.0).max(f64::MIN_POSITIVE),
            ex.evals as f64 / bnb.evals.max(1) as f64
        ));
    }
    out
}
