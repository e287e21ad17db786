//! The runner facade.

use std::sync::Arc;

use exegpt_cluster::ClusterSpec;
use exegpt_model::ModelConfig;
use exegpt_profiler::LayerProfile;
use exegpt_sim::{ScheduleConfig, Simulator, Workload};
use exegpt_units::Secs;
use exegpt_workload::{PoissonStream, RequestStream, TimedRequest};

use crate::error::RunError;
use crate::exec::PhaseExecutor;
use crate::queue::AdmissionQueue;
use crate::replica::{Admission, FaultFactors, PhaseRecord, ReplicaState};
use crate::report::RunReport;
use crate::trace::{SpanKind, Trace};

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
        // The simulator's feasibility checks and derived pool size apply
        // as-is.
        let exec = PhaseExecutor::new(&self.sim, schedule)?;
        let stream_workload = opts.request_workload.as_ref().unwrap_or(self.sim.workload());
        // FIFO queue (front = oldest), sorted by arrival time.
        let queue: AdmissionQueue = match opts.arrival_rate {
            Some(rate) => PoissonStream::new(stream_workload, rate, opts.seed)
                .take(opts.num_queries)
                .collect(),
            None => RequestStream::new(stream_workload, opts.seed)
                .take(opts.num_queries)
                .map(|request| TimedRequest { request, arrival: 0.0 })
                .collect(),
        };
        let mut state = ReplicaState::new(exec, opts.adjust_threshold, queue);
        let open_loop = opts.arrival_rate.is_some();
        let mut latencies = Vec::with_capacity(opts.num_queries);
        let mut sojourns = Vec::new();
        let mut completion_times = Vec::with_capacity(opts.num_queries);
        let (mut enc_stage_times, mut dec_stage_times) = (Vec::new(), Vec::new());
        let mut trace = opts.record_trace.then(Trace::new);
        while latencies.len() < opts.num_queries {
            match state.admit()? {
                Admission::Run => {}
                Admission::Idle => continue,
                Admission::Drained => break,
            }
            let record = state.run_phase(FaultFactors::nominal(), |done, t| {
                latencies.push(t - done.t_encoded);
                if open_loop {
                    sojourns.push(t - done.arrival);
                }
                completion_times.push(t);
            })?;
            enc_stage_times.extend(record.encode_stage);
            dec_stage_times.extend_from_slice(state.decode_stage_times());
            if let Some(trace) = trace.as_mut() {
                record_spans(trace, &record);
            }
        }
        let (throughput, makespan) = windowed_throughput(&mut completion_times, opts.warmup_frac);
        Ok(RunReport {
            completed: latencies.len(),
            tokens_generated: state.pool().tokens(),
            makespan: Secs::new(makespan),
            throughput,
            latencies,
            encoder_stage_times: enc_stage_times,
            decoder_stage_times: dec_stage_times,
            peak_kv_bytes: state.peak_kv_bytes(),
            kv_clamped_tokens: state.kv().clamped_tokens(),
            param_bytes: state.exec().param_bytes(),
            trace,
            sojourn_times: sojourns,
        })
    }
}

/// Records a phase's spans: RRA phases on the shared workers, WAA rounds on
/// the encoder and decoder groups and the handover between them.
fn record_spans(trace: &mut Trace, r: &PhaseRecord) {
    let ([e0, e1], [d0, d1], [h0, h1]) = (r.encode, r.decode, r.handover);
    if r.coupled {
        trace.record("encoders", SpanKind::Encode, e0, e1, r.admitted);
        trace.record("decoders", SpanKind::Decode, d0, d1, r.pool);
        trace.record("handover", SpanKind::KvTransfer, h0, h1, r.admitted);
    } else {
        trace.record("workers", SpanKind::Encode, e0, e1, r.admitted);
        trace.record("workers", SpanKind::Decode, d0, d1, r.pool);
    }
}

/// Computes the throughput window: completions after warm-up, over the time
/// between the warm-up completion and the last completion. Returns the
/// throughput and the last completion time. Sorts `times`.
pub fn windowed_throughput(times: &mut [f64], warmup_frac: f64) -> (f64, f64) {
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
