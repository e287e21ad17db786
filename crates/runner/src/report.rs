//! Measured results of one execution run.

use exegpt_dist::stats;
use exegpt_units::Secs;

use crate::runner::RunOptions;

/// Measurements collected by the runner over one run.
///
/// Throughput is measured over the post-warm-up window; latencies are per
/// completed query (from the start of the query's encoding to its final
/// token); stage-time vectors feed the Table 7 variance analysis; peak KV
/// bytes feed the Figure 9 memory comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Queries completed over the whole run.
    pub completed: usize,
    /// Output tokens generated over the whole run.
    pub tokens_generated: u64,
    /// Virtual end time of the run.
    pub makespan: Secs,
    /// Completed queries per second over the measurement window.
    pub throughput: f64,
    /// Per-query latencies in seconds (encode start → last token).
    pub latencies: Vec<f64>,
    /// Bottleneck-stage execution time of each encoding phase.
    pub encoder_stage_times: Vec<f64>,
    /// Bottleneck-stage execution time of each decoding iteration.
    pub decoder_stage_times: Vec<f64>,
    /// Peak KV-cache bytes observed on the bottleneck GPU.
    pub peak_kv_bytes: u64,
    /// Tokens generated while the KV cache was full, whose growth was
    /// clamped (see [`KvTracker::grow_slot_or_clamp`](crate::KvTracker)).
    /// Nonzero only when the traffic outgrows what the plan was sized for.
    pub kv_clamped_tokens: u64,
    /// Parameter bytes resident on the bottleneck GPU.
    pub param_bytes: u64,
}

impl RunReport {
    /// The shared latency summary (count/mean/p50/p95/p99/max) of per-query
    /// latencies; `None` when nothing completed. The same
    /// [`stats::Summary`] shape backs the serving loop's metrics.
    pub fn latency_summary(&self) -> Option<stats::Summary> {
        stats::summary(&self.latencies)
    }

    /// Mean per-query latency (0 when nothing completed).
    pub fn mean_latency(&self) -> f64 {
        self.latency_summary().map_or(0.0, |s| s.mean)
    }

    /// 99th-percentile per-query latency (0 when nothing completed).
    pub fn p99_latency(&self) -> f64 {
        self.latency_summary().map_or(0.0, |s| s.p99)
    }

    /// Maximum per-query latency (0 when nothing completed).
    pub fn max_latency(&self) -> f64 {
        self.latency_summary().map_or(0.0, |s| s.max)
    }

    /// Mean and ±99th-percentile half-range of encoder stage times, the
    /// form Table 7 reports.
    pub fn encoder_stage_stats(&self) -> (f64, f64) {
        (
            stats::mean(&self.encoder_stage_times).unwrap_or(0.0),
            stats::pctl99_half_range(&self.encoder_stage_times).unwrap_or(0.0),
        )
    }

    /// Mean and ±99th-percentile half-range of decoder stage times.
    pub fn decoder_stage_stats(&self) -> (f64, f64) {
        (
            stats::mean(&self.decoder_stage_times).unwrap_or(0.0),
            stats::pctl99_half_range(&self.decoder_stage_times).unwrap_or(0.0),
        )
    }
}

/// What a replay records as it runs, turned into its [`RunReport`] at the
/// end: every replay (the schedule runner and the baselines) builds its
/// report here.
#[derive(Debug)]
pub struct CompletionLog {
    warmup_frac: f64,
    latencies: Vec<f64>,
    completion_times: Vec<f64>,
    /// Bottleneck-stage execution time of each encoding phase.
    pub encoder_stage_times: Vec<f64>,
    /// Bottleneck-stage execution time of each decoding iteration.
    pub decoder_stage_times: Vec<f64>,
}

impl CompletionLog {
    /// An empty log for a run under `opts`.
    pub fn new(opts: &RunOptions) -> Self {
        Self {
            warmup_frac: opts.warmup_frac,
            latencies: Vec::with_capacity(opts.num_queries),
            completion_times: Vec::with_capacity(opts.num_queries),
            encoder_stage_times: Vec::new(),
            decoder_stage_times: Vec::new(),
        }
    }

    /// Records a query that started at `started` and completed at `t`.
    pub fn complete(&mut self, t: f64, started: f64) {
        self.latencies.push(t - started);
        self.completion_times.push(t);
    }

    /// Queries completed so far.
    pub fn completed(&self) -> usize {
        self.latencies.len()
    }

    /// The run's report: throughput over the completions after the warm-up
    /// fraction of them, the totals as given.
    pub fn into_report(
        mut self,
        tokens_generated: u64,
        peak_kv_bytes: u64,
        kv_clamped_tokens: u64,
        param_bytes: u64,
    ) -> RunReport {
        let (throughput, makespan) =
            windowed_throughput(&mut self.completion_times, self.warmup_frac);
        RunReport {
            completed: self.latencies.len(),
            tokens_generated,
            makespan: Secs::new(makespan),
            throughput,
            latencies: self.latencies,
            encoder_stage_times: self.encoder_stage_times,
            decoder_stage_times: self.decoder_stage_times,
            peak_kv_bytes,
            kv_clamped_tokens,
            param_bytes,
        }
    }
}

/// Computes the throughput window: completions after warm-up, over the time
/// between the warm-up completion and the last completion. Returns the
/// throughput and the last completion time. Sorts `times`.
fn windowed_throughput(times: &mut [f64], warmup_frac: f64) -> (f64, f64) {
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

    fn report() -> RunReport {
        RunReport {
            completed: 3,
            tokens_generated: 30,
            makespan: Secs::new(10.0),
            throughput: 0.3,
            latencies: vec![1.0, 2.0, 9.0],
            encoder_stage_times: vec![1.0, 1.2, 0.8],
            decoder_stage_times: vec![0.1; 10],
            peak_kv_bytes: 100,
            kv_clamped_tokens: 0,
            param_bytes: 200,
        }
    }

    #[test]
    fn latency_stats() {
        let r = report();
        assert!((r.mean_latency() - 4.0).abs() < 1e-12);
        assert_eq!(r.p99_latency(), 9.0);
        assert_eq!(r.max_latency(), 9.0);
        let s = r.latency_summary().expect("non-empty");
        assert_eq!(s.count, 3);
        assert_eq!(s.p50, 2.0);
        assert_eq!((s.p99, s.max), (9.0, 9.0));
    }

    #[test]
    fn stage_stats_are_mean_and_half_range() {
        let (mean, half) = report().encoder_stage_stats();
        assert!((mean - 1.0).abs() < 1e-12);
        assert!(half > 0.0);
        let (_, dec_half) = report().decoder_stage_stats();
        assert_eq!(dec_half, 0.0, "constant stage times have no spread");
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport {
            completed: 0,
            tokens_generated: 0,
            makespan: Secs::ZERO,
            throughput: 0.0,
            latencies: vec![],
            encoder_stage_times: vec![],
            decoder_stage_times: vec![],
            peak_kv_bytes: 0,
            kv_clamped_tokens: 0,
            param_bytes: 0,
        };
        assert_eq!(r.mean_latency(), 0.0);
        assert_eq!(r.p99_latency(), 0.0);
    }
}
