//! The runner facade.

use std::sync::Arc;

use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::LayerProfile;
use exegpt_sim::{ScheduleConfig, Simulator, Workload};
use exegpt_workload::{RequestStream, TimedRequest};

use crate::error::RunError;
use crate::exec::PhaseExecutor;
use crate::queue::AdmissionQueue;
use crate::replica::{Admission, FaultFactors, PhaseRecord, ReplicaState};
use crate::report::{CompletionLog, RunReport};

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
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            num_queries: 500,
            seed: 0,
            warmup_frac: 0.1,
            adjust_threshold: 0.15,
            request_workload: None,
        }
    }
}

impl RunOptions {
    /// Checks that the options describe a run.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::InvalidOptions`] naming the first bad option.
    pub fn validate(&self) -> Result<(), RunError> {
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
        self.run_observed(schedule, opts, |_| {})
    }

    /// [`run`](Self::run), handing each phase's [`PhaseRecord`] to `observe`
    /// as soon as it has run. The report is the one `run` returns.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_observed(
        &self,
        schedule: &ScheduleConfig,
        opts: &RunOptions,
        mut observe: impl FnMut(&PhaseRecord),
    ) -> Result<RunReport, RunError> {
        opts.validate()?;
        // The simulator's feasibility checks and derived pool size apply
        // as-is.
        let exec = PhaseExecutor::new(&self.sim, schedule)?;
        let stream_workload = opts.request_workload.as_ref().unwrap_or(self.sim.workload());
        // FIFO queue (front = oldest), every query pending at time zero.
        let queue: AdmissionQueue = RequestStream::new(stream_workload, opts.seed)
            .take(opts.num_queries)
            .map(|request| TimedRequest { request, arrival: 0.0 })
            .collect();
        let mut state = ReplicaState::new(exec, opts.adjust_threshold, queue);
        let mut log = CompletionLog::new(opts);
        while log.completed() < opts.num_queries {
            match state.admit()? {
                Admission::Run => {}
                Admission::Idle => continue,
                Admission::Drained => break,
            }
            let record = state.run_phase(FaultFactors::nominal(), |done, t| {
                log.complete(t, done.t_encoded);
            })?;
            observe(&record);
            log.encoder_stage_times.extend(record.encode_stage);
            log.decoder_stage_times.extend_from_slice(state.decode_stage_times());
        }
        Ok(log.into_report(
            state.pool().tokens(),
            state.peak_kv_bytes(),
            state.kv().clamped_tokens(),
            state.exec().param_bytes(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_validate() {
        assert!(RunOptions { num_queries: 0, ..Default::default() }.validate().is_err());
        assert!(RunOptions { warmup_frac: 1.0, ..Default::default() }.validate().is_err());
        assert!(RunOptions { adjust_threshold: -1.0, ..Default::default() }.validate().is_err());
        assert!(RunOptions::default().validate().is_ok());
    }
}
