//! One replica's execution state and its phase body, shared by the offline
//! replay ([`Runner::run`](crate::Runner::run)) and the serve step
//! (`exegpt-serve`): the installed [`PhaseExecutor`], §5.2 admission, the
//! KV tracker, the [`DecodePool`] and the virtual clock.
//!
//! [`ReplicaState::run_phase`] is the only place a phase is composed: an
//! RRA encode phase followed by up to `N_D` decoding iterations, or one WAA
//! round of `max(p_enc, p_dec, t_kv)`. Both callers turn its
//! [`PhaseRecord`] into their own output (stage times and the records
//! handed to [`Runner::run_observed`](crate::Runner::run_observed)'s
//! observer, or events and metrics), so a schedule is timed identically
//! whether it is replayed offline or served online.
//!
//! Per phase and per iteration this costs in proportion to the events, not
//! to the generated tokens: admission to the admitted batch (see
//! [`AdmissionQueue`]), and a decoding iteration O(1) plus O(k log k) for
//! its `k` finishing queries, which the pool's timing wheel lists and
//! which are sorted by position, KV growth included (see [`DecodePool`]).

use exegpt::DynamicAdjuster;
use exegpt_workload::TimedRequest;

use crate::error::RunError;
use crate::exec::PhaseExecutor;
use crate::kv::{KvSlot, KvTracker};
use crate::pool::{DecodePool, Finished, GrowthOrder};
use crate::queue::AdmissionQueue;

/// Compute and link multipliers applied to a phase's timings (injected
/// faults). [`nominal`](Self::nominal) leaves every timing exact:
/// `x * 1.0` and `x + 0.0` are `x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultFactors {
    /// Phase-time multiplier from the worst live, non-evicted straggler.
    pub dilation: f64,
    /// KV-handover multiplier from link bandwidth degradation.
    pub link_time: f64,
    /// Added per-handover latency in virtual seconds.
    pub link_latency: f64,
}

impl FaultFactors {
    /// The identity: nominal cluster, no dilation.
    pub fn nominal() -> Self {
        Self { dilation: 1.0, link_time: 1.0, link_latency: 0.0 }
    }
}

/// What an admission left the caller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the phase: something was admitted or the pool is non-empty.
    Run,
    /// Nothing has arrived yet; the clock jumped to the next arrival.
    Idle,
    /// Queue and pool are both empty.
    Drained,
}

/// What one phase did, for the caller to log. Spans are `[start, end]` in
/// virtual seconds, under the phase's fault factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseRecord {
    /// Whether this was a WAA round (encode, decode and handover overlap)
    /// rather than an RRA encode phase followed by decoding iterations.
    pub coupled: bool,
    /// The encode span: the RRA encode phase (empty when nothing was
    /// admitted), or the WAA encoder pipeline period.
    pub encode: [f64; 2],
    /// The decode span: the RRA decoding iterations, or the WAA pool
    /// iteration (empty when the pool was).
    pub decode: [f64; 2],
    /// The WAA KV handover span (empty for RRA).
    pub handover: [f64; 2],
    /// When the phase began and ended.
    pub span: [f64; 2],
    /// Queries admitted into the phase.
    pub admitted: usize,
    /// Queries the decode ran over: the pool after the admissions joined
    /// (RRA), or before (WAA).
    pub pool: usize,
    /// Decoding iterations run.
    pub iters: usize,
    /// Bottleneck-stage time of the encode, when something was admitted.
    pub encode_stage: Option<f64>,
    /// The phase's duration under nominal factors.
    pub nominal: f64,
    /// The phase's duration under the applied factors.
    pub dilated: f64,
}

/// One replica's execution state (see the module docs).
#[derive(Debug)]
pub struct ReplicaState {
    exec: PhaseExecutor,
    adjust_threshold: f64,
    adjuster: DynamicAdjuster,
    scheduled_b_d: usize,
    kv: KvTracker,
    /// The high-water mark of the trackers that plan swaps replaced.
    swapped_peak: u64,
    /// The waiting requests, arrival-sorted.
    pub queue: AdmissionQueue,
    /// Requests admitted this phase, not yet in the pool.
    admitted: Vec<(TimedRequest, KvSlot)>,
    /// Input lengths of `admitted`, for the encode timing.
    lens: Vec<usize>,
    pool: DecodePool,
    /// Bottleneck-stage times of the last phase's decoding iterations.
    decode_stages: Vec<f64>,
    /// The virtual clock.
    pub t: f64,
}

impl ReplicaState {
    /// A replica at time zero running `exec`, with `queue` waiting and §5.2
    /// admission at `adjust_threshold`.
    pub fn new(exec: PhaseExecutor, adjust_threshold: f64, queue: AdmissionQueue) -> Self {
        let scheduled_b_d = exec.scheduled_decode_batch();
        // The plan sizes the pool at its decode batch, and the pool's
        // timing wheel at its workload's longest output.
        let pool = DecodePool::with_capacity(scheduled_b_d, exec.longest_output());
        Self {
            adjuster: exec.adjuster(adjust_threshold),
            adjust_threshold,
            scheduled_b_d,
            kv: exec.kv_tracker(),
            swapped_peak: 0,
            exec,
            queue,
            admitted: Vec::new(),
            lens: Vec::new(),
            pool,
            decode_stages: Vec::new(),
            t: 0.0,
        }
    }

    /// The installed plan's executor.
    pub fn exec(&self) -> &PhaseExecutor {
        &self.exec
    }

    /// The KV tracker of the installed plan.
    pub fn kv(&self) -> &KvTracker {
        &self.kv
    }

    /// The decode pool.
    pub fn pool(&self) -> &DecodePool {
        &self.pool
    }

    /// Bottleneck-stage times of the last phase's decoding iterations.
    pub fn decode_stage_times(&self) -> &[f64] {
        &self.decode_stages
    }

    /// The KV high-water mark over every installed plan's tracker.
    pub fn peak_kv_bytes(&self) -> u64 {
        self.swapped_peak.max(self.kv.peak_bytes())
    }

    /// Dynamic admission (§5.2) for the next phase. Only queries that have
    /// arrived are admissible: a prefix, as the queue is arrival-sorted.
    ///
    /// # Errors
    ///
    /// [`RunError::Stalled`] when nothing is in flight and the oldest
    /// arrived query cannot fit in the KV cache.
    pub fn admit(&mut self) -> Result<Admission, RunError> {
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
                self.t = next.arrival;
                Ok(Admission::Idle)
            }
            Some(_) => Err(self.queue.stalled()),
        }
    }

    /// Runs the admitted batch through one phase under `factors`: an RRA
    /// encode phase and up to `N_D` decoding iterations, or one WAA round.
    /// Each query that generates its last token goes to `on_finish` with
    /// its completion time, in completion order.
    ///
    /// # Errors
    ///
    /// [`RunError::Schedule`] when a batch falls outside the profiled
    /// range.
    pub fn run_phase(
        &mut self,
        factors: FaultFactors,
        mut on_finish: impl FnMut(Finished, f64),
    ) -> Result<PhaseRecord, RunError> {
        let dilation = factors.dilation;
        let t_start = self.t;
        let admitted = self.admitted.len();
        self.decode_stages.clear();
        let encode = if admitted == 0 {
            None
        } else {
            self.lens.clear();
            self.lens.extend(self.admitted.iter().map(|(r, _)| r.request.input_len));
            Some(self.exec.encode_timing(&self.lens)?)
        };
        let encode_stage = encode.map(|e| e.bottleneck.as_secs());

        if self.exec.is_coupled() {
            // The encoder pipeline, one pool iteration and the handover of
            // the encoded batch overlap; the round takes the longest.
            let pool = self.pool.len();
            let p_enc = encode_stage.unwrap_or(0.0);
            let p_dec = if pool == 0 {
                0.0
            } else {
                let b_m = self.exec.decode_parallelism(pool);
                let dec = self.exec.decode_timing(b_m, pool, self.pool.mean_context(), false)?;
                self.decode_stages.push(dec.bottleneck.as_secs());
                dec.total.as_secs()
            };
            let t_kv_base = self.exec.handover_time(encode.map_or(0.0, |e| e.tokens)).as_secs();
            let t_kv = if t_kv_base > 0.0 {
                t_kv_base * factors.link_time + factors.link_latency
            } else {
                t_kv_base
            };
            let nominal = p_enc.max(p_dec).max(t_kv_base);
            let (p_enc, p_dec) = (p_enc * dilation, p_dec * dilation);
            let round = p_enc.max(p_dec).max(t_kv);
            self.t += round;
            if pool > 0 {
                // The encoder group's fresh admissions are resident but
                // not pooled yet: only the pool grows, in its scan order.
                self.advance(GrowthOrder::Pool, &mut on_finish);
            }
            self.pool_admitted(t_start);
            return Ok(PhaseRecord {
                coupled: true,
                encode: [t_start, t_start + p_enc],
                decode: [t_start, t_start + p_dec],
                handover: [t_start, t_start + t_kv],
                span: [t_start, self.t],
                admitted,
                pool,
                iters: usize::from(pool > 0),
                encode_stage,
                nominal,
                dilated: round,
            });
        }

        let (mut nominal, mut dilated) = (0.0f64, 0.0f64);
        if let Some(enc) = encode {
            let dt = enc.total.as_secs();
            self.t += dt * dilation;
            nominal += dt;
            dilated += dt * dilation;
            self.pool_admitted(t_start);
        }
        let t_encoded = self.t;
        let pool = self.pool.len();
        let m_d = self.exec.decode_parallelism(pool);
        let mut iters = 0;
        while iters < self.exec.decode_iters_per_phase() && !self.pool.is_empty() {
            let ctx = self.pool.mean_context();
            let dec = self.exec.decode_timing(m_d, self.pool.len(), ctx, iters == 0)?;
            self.decode_stages.push(dec.bottleneck.as_secs());
            let dt = dec.total.as_secs();
            self.t += dt * dilation;
            nominal += dt;
            dilated += dt * dilation;
            iters += 1;
            // The resident set of an RRA decode iteration is the pool.
            self.advance(GrowthOrder::Arena, &mut on_finish);
        }
        Ok(PhaseRecord {
            coupled: false,
            encode: [t_start, t_encoded],
            decode: [t_encoded, self.t],
            handover: [t_encoded, t_encoded],
            span: [t_start, self.t],
            admitted,
            pool,
            iters,
            encode_stage,
            nominal,
            dilated,
        })
    }

    /// Installs `exec` at a phase boundary (a plan swap): a fresh tracker
    /// for the new plan, into which every pooled query's KV entry migrates
    /// unconditionally (evicting live queries would violate their SLO by
    /// construction), and the new plan's adjuster and `B_D`.
    pub fn install(&mut self, exec: PhaseExecutor) {
        self.swapped_peak = self.peak_kv_bytes();
        let mut kv = exec.kv_tracker();
        self.pool.migrate(&mut kv);
        self.kv = kv;
        self.adjuster = exec.adjuster(self.adjust_threshold);
        self.scheduled_b_d = exec.scheduled_decode_batch();
        self.exec = exec;
    }

    /// Empties the pool in pool order, releasing each member's KV entry
    /// and handing its request to `each`.
    pub fn clear_pool(&mut self, each: impl FnMut(TimedRequest)) {
        self.pool.clear(&mut self.kv, each);
    }

    /// Moves the admitted batch, encoded from `t_encoded`, into the pool.
    fn pool_admitted(&mut self, t_encoded: f64) {
        for (tr, slot) in self.admitted.drain(..) {
            self.pool.push(&mut self.kv, tr, slot, t_encoded);
        }
    }

    /// One decoding iteration of the pool ending at the current clock.
    fn advance(&mut self, order: GrowthOrder, on_finish: &mut impl FnMut(Finished, f64)) {
        let t = self.t;
        self.pool.advance(&mut self.kv, order, t, |done| on_finish(done, t));
    }
}
