//! The runner facade.

use std::sync::Arc;

use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::LayerProfile;
use exegpt_sim::{ScheduleConfig, Simulator, Workload};

use crate::error::RunError;
use crate::report::RunReport;
use crate::{rra_run, waa_run};

/// Options for one execution run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Number of queries to execute (all pending at time zero — the
    /// saturation regime the paper's throughput numbers use).
    pub num_queries: usize,
    /// Seed for sampling query lengths.
    pub seed: u64,
    /// Fraction of completions treated as warm-up and excluded from the
    /// throughput window.
    pub warmup_frac: f64,
    /// Dynamic-adjustment workload threshold (paper §5.2).
    pub adjust_threshold: f64,
    /// Sample request lengths from this workload instead of the planning
    /// workload. This is how the distribution-shift study (Figure 11) runs
    /// a *non-adjusted* schedule: plans stay sized for the old
    /// distribution while the traffic follows the new one.
    pub request_workload: Option<Workload>,
    /// Record an execution [`Trace`](crate::Trace) (per-phase spans) in the
    /// report.
    pub record_trace: bool,
    /// Open-loop serving: queries arrive as a Poisson process of this rate
    /// (queries/second) instead of all being queued at time zero. Enables
    /// the SLA-(a) style sojourn-time statistics in the report (§7.6).
    pub arrival_rate: Option<f64>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            num_queries: 500,
            seed: 0,
            warmup_frac: 0.1,
            adjust_threshold: 0.15,
            request_workload: None,
            record_trace: false,
            arrival_rate: None,
        }
    }
}

impl RunOptions {
    fn validate(&self) -> Result<(), RunError> {
        if self.num_queries == 0 {
            return Err(RunError::InvalidOptions {
                what: "num_queries",
                why: "must be at least 1".into(),
            });
        }
        if !(0.0..1.0).contains(&self.warmup_frac) {
            return Err(RunError::InvalidOptions {
                what: "warmup_frac",
                why: "must be in [0, 1)".into(),
            });
        }
        #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must be rejected too")]
        if !(self.adjust_threshold >= 0.0) {
            return Err(RunError::InvalidOptions {
                what: "adjust_threshold",
                why: "must be non-negative".into(),
            });
        }
        if let Some(rate) = self.arrival_rate {
            #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must be rejected too")]
            if !(rate > 0.0) {
                return Err(RunError::InvalidOptions {
                    what: "arrival_rate",
                    why: "must be positive".into(),
                });
            }
        }
        Ok(())
    }
}

/// XRunner: executes a schedule as a discrete-event replay with sampled
/// query lengths (see the crate docs).
#[derive(Debug, Clone)]
pub struct Runner {
    sim: Simulator,
}

impl Runner {
    /// Creates a runner for a (model, cluster, profile, workload) tuple.
    pub fn new(
        model: ModelConfig,
        cluster: ClusterSpec,
        profile: Arc<LayerProfile>,
        workload: Workload,
    ) -> Self {
        Self { sim: Simulator::new(model, cluster, profile, workload) }
    }

    /// Creates a runner sharing an existing simulator's context — the usual
    /// path after scheduling, guaranteeing both see identical profiles.
    pub fn from_simulator(sim: Simulator) -> Self {
        Self { sim }
    }

    /// The simulator sharing this runner's context.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Executes `schedule` over `opts.num_queries` sampled queries.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Schedule`] when the schedule is invalid or
    /// infeasible, [`RunError::InvalidOptions`] for bad options, or
    /// [`RunError::Stalled`] when no progress is possible.
    pub fn run(&self, schedule: &ScheduleConfig, opts: &RunOptions) -> Result<RunReport, RunError> {
        opts.validate()?;
        match schedule {
            ScheduleConfig::Rra(cfg) => rra_run::run(&self.sim, cfg, opts),
            ScheduleConfig::Waa(cfg) => waa_run::run(&self.sim, cfg, opts),
        }
    }
}

/// Computes the throughput window: completions after warm-up, over the time
/// between the warm-up completion and the last completion. Sorts `times`.
pub(crate) fn windowed_throughput(times: &mut [f64], warmup_frac: f64) -> (f64, f64) {
    if times.is_empty() {
        return (0.0, 0.0);
    }
    times.sort_by(f64::total_cmp);
    let warm = ((times.len() as f64 * warmup_frac) as usize).min(times.len() - 1);
    let t0 = if warm == 0 { 0.0 } else { times[warm - 1] };
    let t1 = times.last().copied().unwrap_or(0.0);
    let counted = (times.len() - warm) as f64;
    if t1 <= t0 {
        // Degenerate window (e.g. one static batch completing everything at
        // once): fall back to the whole-run average.
        return (times.len() as f64 / t1.max(f64::MIN_POSITIVE), t1);
    }
    (counted / (t1 - t0), t1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_throughput_handles_edges() {
        assert_eq!(windowed_throughput(&mut [], 0.1), (0.0, 0.0));
        // Ten completions one second apart, 10% warm-up: 9 over 9 seconds.
        let mut times: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let (thr, end) = windowed_throughput(&mut times, 0.1);
        assert!((thr - 1.0).abs() < 1e-9);
        assert_eq!(end, 10.0);
    }

    #[test]
    fn options_validate() {
        assert!(RunOptions { num_queries: 0, ..Default::default() }.validate().is_err());
        assert!(RunOptions { warmup_frac: 1.0, ..Default::default() }.validate().is_err());
        assert!(RunOptions { adjust_threshold: -1.0, ..Default::default() }.validate().is_err());
        assert!(RunOptions { arrival_rate: Some(0.0), ..Default::default() }.validate().is_err());
        assert!(RunOptions::default().validate().is_ok());
    }
}
