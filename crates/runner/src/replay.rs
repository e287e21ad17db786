//! State and bookkeeping shared by the RRA and WAA replays: the admission
//! queue, the decode pool with its running context sum, the KV tracker and
//! the measurements that become the [`RunReport`].
//!
//! Per phase and per iteration this costs in proportion to the work done:
//! admission to the admitted batch (see [`AdmissionQueue`]), the pool's
//! mean context O(1), and per-query KV growth one arena index through the
//! admission handle.

use exegpt::DynamicAdjuster;
use exegpt_sim::{ScheduleConfig, Simulator};
use exegpt_units::Secs;
use exegpt_workload::{PoissonStream, Request, RequestStream, TimedRequest};

use crate::error::RunError;
use crate::exec::{EncodeTiming, PhaseExecutor};
use crate::kv::{KvSlot, KvTracker};
use crate::queue::AdmissionQueue;
use crate::report::RunReport;
use crate::runner::{windowed_throughput, RunOptions};
use crate::trace::Trace;

/// A query in the decode pool.
struct Active {
    req: Request,
    progress: usize,
    t_encoded: f64,
    arrival: f64,
    slot: KvSlot,
}

/// What an admission left the replay to do.
pub(crate) enum Admission {
    /// Run the phase: something was admitted or the pool is non-empty.
    Run,
    /// Nothing has arrived yet; the clock jumped to the next arrival.
    Idle,
    /// Queue and pool are both empty.
    Drained,
}

/// One replay in progress.
pub(crate) struct Replay<'a> {
    pub(crate) exec: PhaseExecutor,
    opts: &'a RunOptions,
    adjuster: DynamicAdjuster,
    scheduled_b_d: usize,
    pub(crate) kv: KvTracker,
    queue: AdmissionQueue,
    /// Requests admitted this phase, not yet in the pool.
    pub(crate) admitted: Vec<(TimedRequest, KvSlot)>,
    /// Input lengths of `admitted`, for the encode timing.
    lens: Vec<usize>,
    pool: Vec<Active>,
    /// Σ (input + generated tokens) over `pool`. Every term and partial sum
    /// is an integer below 2^53, so the f64 left fold this replaces was
    /// exact and `ctx_sum as f64` equals it bit for bit.
    ctx_sum: usize,
    /// The virtual clock.
    pub(crate) t: f64,
    latencies: Vec<f64>,
    sojourns: Vec<f64>,
    completion_times: Vec<f64>,
    pub(crate) enc_stage_times: Vec<f64>,
    pub(crate) dec_stage_times: Vec<f64>,
    tokens: u64,
    pub(crate) trace: Option<Trace>,
}

impl<'a> Replay<'a> {
    /// Validates `schedule` on `sim` and draws the request queue.
    pub(crate) fn new(
        sim: &Simulator,
        schedule: &ScheduleConfig,
        opts: &'a RunOptions,
    ) -> Result<Self, RunError> {
        // The simulator's feasibility checks and derived pool size apply
        // as-is.
        let exec = PhaseExecutor::new(sim, schedule)?;
        let stream_workload = opts.request_workload.as_ref().unwrap_or(sim.workload());
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
        Ok(Self {
            adjuster: exec.adjuster(opts.adjust_threshold),
            scheduled_b_d: exec.scheduled_decode_batch(),
            kv: exec.kv_tracker(),
            exec,
            opts,
            queue,
            admitted: Vec::new(),
            lens: Vec::new(),
            pool: Vec::new(),
            ctx_sum: 0,
            t: 0.0,
            latencies: Vec::with_capacity(opts.num_queries),
            sojourns: Vec::new(),
            completion_times: Vec::with_capacity(opts.num_queries),
            enc_stage_times: Vec::new(),
            dec_stage_times: Vec::new(),
            tokens: 0,
            trace: opts.record_trace.then(Trace::new),
        })
    }

    /// Whether queries remain to complete.
    pub(crate) fn unfinished(&self) -> bool {
        self.latencies.len() < self.opts.num_queries
    }

    /// Dynamic admission (§5.2) into `admitted`. Only queries that have
    /// arrived are admissible: a prefix, as the queue is arrival-sorted.
    ///
    /// # Errors
    ///
    /// [`RunError::Stalled`] when nothing is in flight and the oldest
    /// arrived query cannot fit in the KV cache.
    pub(crate) fn admit_arrived(&mut self) -> Result<Admission, RunError> {
        let arrived = self.queue.arrived_by(self.t);
        self.queue.admit(
            arrived,
            &self.adjuster,
            self.pool.len(),
            self.scheduled_b_d,
            &mut self.kv,
            &mut self.admitted,
        );
        if !self.admitted.is_empty() || !self.pool.is_empty() {
            return Ok(Admission::Run);
        }
        match self.queue.front() {
            None => Ok(Admission::Drained),
            Some(next) if arrived == 0 => {
                // Idle: nothing has arrived yet; advance to the next arrival.
                self.t = next.arrival;
                Ok(Admission::Idle)
            }
            Some(_) => Err(self.queue.stalled()),
        }
    }

    /// Times the encoding of the admitted batch (must be non-empty).
    pub(crate) fn encode_admitted(&mut self) -> Result<EncodeTiming, RunError> {
        self.lens.clear();
        self.lens.extend(self.admitted.iter().map(|(r, _)| r.request.input_len));
        self.exec.encode_timing(&self.lens)
    }

    /// Moves the admitted batch, encoded from `t_encoded`, into the pool.
    pub(crate) fn pool_admitted(&mut self, t_encoded: f64) {
        for (tr, slot) in self.admitted.drain(..) {
            self.ctx_sum += tr.request.input_len;
            self.pool.push(Active {
                req: tr.request,
                progress: 0,
                t_encoded,
                arrival: tr.arrival,
                slot,
            });
        }
    }

    /// Queries in the decode pool.
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Mean context length (input + generated so far) over the non-empty
    /// pool.
    pub(crate) fn mean_context(&self) -> f64 {
        debug_assert_eq!(
            self.ctx_sum as f64,
            self.pool.iter().map(|a| (a.req.input_len + a.progress) as f64).sum::<f64>(),
            "running context sum drifted from the pool"
        );
        self.ctx_sum as f64 / self.pool.len() as f64
    }

    /// One decoding iteration ending at the current clock: every pooled
    /// query generates a token, and finished queries release their KV
    /// entries and are recorded. `grow_each` grows each query's entry
    /// through its handle (clamping at capacity); without it the caller
    /// has grown the whole resident set already.
    pub(crate) fn advance(&mut self, grow_each: bool) {
        let t = self.t;
        self.tokens += self.pool.len() as u64;
        self.ctx_sum += self.pool.len();
        let mut i = 0;
        while i < self.pool.len() {
            let a = &mut self.pool[i];
            a.progress += 1;
            if grow_each {
                self.kv.grow_slot_or_clamp(a.slot, 1);
            }
            if a.progress >= a.req.output_len {
                let done = self.pool.swap_remove(i);
                self.ctx_sum -= done.req.input_len + done.progress;
                self.kv.release(done.req.id);
                self.latencies.push(t - done.t_encoded);
                if self.opts.arrival_rate.is_some() {
                    self.sojourns.push(t - done.arrival);
                }
                self.completion_times.push(t);
            } else {
                i += 1;
            }
        }
    }

    /// The run's report.
    pub(crate) fn finish(self) -> RunReport {
        let (throughput, makespan) =
            windowed_throughput(&self.completion_times, self.opts.warmup_frac);
        RunReport {
            completed: self.latencies.len(),
            tokens_generated: self.tokens,
            makespan: Secs::new(makespan),
            throughput,
            latencies: self.latencies,
            encoder_stage_times: self.enc_stage_times,
            decoder_stage_times: self.dec_stage_times,
            peak_kv_bytes: self.kv.peak_bytes(),
            param_bytes: self.exec.param_bytes(),
            trace: self.trace,
            sojourn_times: self.sojourns,
        }
    }
}
