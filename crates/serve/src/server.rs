//! The online serving loop: discrete-event execution of an arrival stream
//! against a live, swappable schedule.
//!
//! The loop body lives in [`ReplicaSession::step`]: one call performs one
//! phase boundary as a sequence of named steps (fault replay, plan-swap
//! install, retry re-admission, arrivals, admission, one phase/round,
//! straggler confirmation, completion accounting, drift reschedule). The
//! phase itself is the runner's [`ReplicaState::run_phase`], the body the
//! offline replay runs too; the session maps its record to events and
//! metrics.
//!
//! [`ServeLoop::run`] drives a session to completion over its own arrival
//! stream — the classic single-replica mode — while
//! [`ServeLoop::into_replica`] yields the same session in *fleet* mode:
//! arrivals are injected by an external router, the session never jumps its
//! own clock past a parked point, and a fleet event loop interleaves many
//! sessions on one virtual clock.

use std::collections::VecDeque;

use exegpt::{Engine, ScheduleConfig, SchedulerOptions};
use exegpt_cluster::{ClusterSpec, LoadSource};
use exegpt_dist::stats::{SortedSample, Summary};
use exegpt_runner::{
    Admission, AdmissionQueue, FaultFactors, Finished, PhaseExecutor, PhaseRecord, ReplicaState,
};
use exegpt_sim::Workload;
use exegpt_units::Secs;
use exegpt_workload::TimedRequest;
use serde::Serialize;

use crate::drift::{DriftDetector, DriftOptions};
use crate::error::ServeError;
use crate::events::{Event, EventLog};
use crate::faults::{FaultLayer, FaultOptions};
use crate::metrics::{CounterId, GaugeId, HistogramId, Metrics, MetricsSnapshot};
use crate::slo::{SloOutcome, SloTargets};

/// Configuration of a [`ServeLoop`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Per-request latency targets.
    pub slo: SloTargets,
    /// §5.2 dynamic-adjustment threshold (fraction of the encoder-workload
    /// target; matches the offline runner's default).
    pub adjust_threshold: f64,
    /// Drift-detector tuning.
    pub drift: DriftOptions,
    /// Whether drift triggers a live reschedule (`false` = static plan,
    /// the Figure 11 "w/o re-optimization" arm).
    pub adaptive: bool,
    /// Scheduler options used for live reschedules (latency bound,
    /// policies, tolerances).
    pub scheduler: SchedulerOptions,
    /// Fault injection and graceful degradation (`None` = fault layer off;
    /// `Some` with an empty schedule behaves identically to `None`).
    pub faults: Option<FaultOptions>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            slo: SloTargets::unconstrained(),
            adjust_threshold: 0.15,
            drift: DriftOptions::default(),
            adaptive: true,
            scheduler: SchedulerOptions::bounded(Secs::INFINITY),
            faults: None,
        }
    }
}

impl ServeOptions {
    fn validate(&self) -> Result<(), ServeError> {
        if self.adjust_threshold.is_nan() || self.adjust_threshold < 0.0 {
            return Err(ServeError::InvalidOption {
                what: "adjust_threshold",
                why: format!("must be non-negative, got {}", self.adjust_threshold),
            });
        }
        let d = &self.drift;
        if d.window == 0 || d.check_every == 0 || d.consecutive == 0 {
            return Err(ServeError::InvalidOption {
                what: "drift",
                why: "window, check_every and consecutive must be positive".into(),
            });
        }
        if d.min_samples > d.window {
            return Err(ServeError::InvalidOption {
                what: "drift.min_samples",
                why: format!("cannot exceed window ({} > {})", d.min_samples, d.window),
            });
        }
        if d.rel_threshold.is_nan() || d.rel_threshold < 0.0 {
            return Err(ServeError::InvalidOption {
                what: "drift.rel_threshold",
                why: format!("must be non-negative, got {}", d.rel_threshold),
            });
        }
        if let Some(f) = &self.faults {
            f.validate()?;
        }
        Ok(())
    }
}

/// Everything a finished serving run reports.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Requests served to completion.
    pub completed: usize,
    /// Output tokens generated.
    pub tokens_generated: u64,
    /// Virtual time of the last completion.
    pub makespan: f64,
    /// Completions per virtual second over the whole run.
    pub throughput: f64,
    /// Time-to-first-token summary (seconds from arrival).
    pub ttft: Option<Summary>,
    /// Per-generated-token latency summary (seconds, outputs > 1 token).
    pub per_token: Option<Summary>,
    /// End-to-end latency summary (seconds from arrival).
    pub e2e: Option<Summary>,
    /// Queueing-delay summary (arrival → encode start).
    pub queue_wait: Option<Summary>,
    /// SLO accounting.
    pub slo: SloOutcome,
    /// Drift checks performed.
    pub drift_checks: usize,
    /// Live reschedules performed.
    pub reschedules: usize,
    /// Plan swaps installed (≤ reschedules).
    pub plan_swaps: usize,
    /// Total virtual seconds spent redeploying across swaps.
    pub swap_cost: f64,
    /// Fault events that became active during the run.
    pub faults_injected: usize,
    /// Device failures detected (after the heartbeat timeout).
    pub faults_detected: usize,
    /// Stragglers confirmed from observed phase timings.
    pub stragglers_detected: usize,
    /// Fault-driven replans (failover onto survivors, or recovery).
    pub replans: usize,
    /// Always 0: every replan is the one certified search, so nothing falls
    /// back. Kept so readers of the removed incremental path's counter
    /// still compile; it is not in [`ServeReport::metrics`].
    pub replan_fallbacks: usize,
    /// Request abort-and-retry episodes caused by failures.
    pub retries: usize,
    /// Requests dropped after exhausting the retry budget.
    pub requests_lost: usize,
    /// Schedule in force when the run ended.
    pub final_schedule: String,
    /// Full metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Structured event log (byte-deterministic for a fixed seed).
    pub events: EventLog,
}

/// The online serving engine.
///
/// Owns a warm [`Engine`] (profile + evaluation caches) and the
/// [`PhaseExecutor`] of the currently installed schedule. [`run`] consumes
/// the loop and a timed arrival stream and plays the stream to completion:
/// admission is dynamic (§5.2), per-request latencies are checked against
/// the SLO, completed output lengths feed a drift detector, and — in
/// adaptive mode — detected drift refits the output distribution, invokes
/// [`Engine::reschedule`] on the warm engine, and installs the new plan at
/// the next phase boundary (paying a redeployment cost if the plan's GPU
/// allocation changed).
///
/// Everything runs in virtual time; for a fixed arrival stream and options
/// the run (including the serialized event log) is byte-deterministic.
///
/// When the fault layer is enabled ([`ServeOptions::faults`]), the loop
/// additionally replays a [`FaultSchedule`](crate::FaultSchedule) on its
/// virtual clock: stragglers dilate phase timings until the straggler detector
/// ([`StragglerOptions`](crate::StragglerOptions)) confirms them (severe
/// ones are evicted and the plan recomputed), device failures mature
/// through a heartbeat timeout, abort in-flight work into a
/// bounded-backoff retry queue and trigger a replan onto the surviving
/// topology, and a fully recovered cluster gets its pre-fault plan back
/// verbatim (unless a drift refit happened in between).
///
/// [`run`]: ServeLoop::run
pub struct ServeLoop {
    engine: Engine,
    exec: PhaseExecutor,
    opts: ServeOptions,
    /// The fault-free deployment, kept for failover (`survivors`) and
    /// recovery replans.
    healthy: ClusterSpec,
    /// The initially installed plan, reinstalled verbatim on full
    /// recovery when no drift refit happened in between.
    original: ScheduleConfig,
}

/// A plan waiting to be installed at the next phase boundary.
struct PendingSwap {
    cfg: ScheduleConfig,
    /// `Some` when the swap also moves to a different topology (failover /
    /// recovery): the engine to commit. `None` for same-topology drift
    /// swaps.
    engine: Option<Engine>,
}

impl ServeLoop {
    /// Creates a serving loop executing `schedule` on `engine`'s
    /// deployment.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Run`] when the schedule is infeasible on the
    /// deployment, or [`ServeError::InvalidOption`] for bad options.
    pub fn new(
        engine: Engine,
        schedule: &ScheduleConfig,
        opts: ServeOptions,
    ) -> Result<Self, ServeError> {
        opts.validate()?;
        let exec = PhaseExecutor::new(engine.simulator(), schedule)?;
        let healthy = engine.simulator().cluster().clone();
        let original = exec.schedule();
        Ok(Self { engine, exec, opts, healthy, original })
    }

    /// The schedule currently installed.
    pub fn schedule(&self) -> ScheduleConfig {
        self.exec.schedule()
    }

    /// Serves `arrivals` (must be sorted by arrival time) to completion.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Run`] if execution stalls (a query can never
    /// fit in the KV cache) or a batch falls outside the profiled range.
    pub fn run(
        self,
        arrivals: impl IntoIterator<Item = TimedRequest>,
    ) -> Result<ServeReport, ServeError> {
        let stream: Vec<TimedRequest> = arrivals.into_iter().collect();
        let mut session = self.into_session(Some(stream))?;
        // `Parked` never occurs in stream mode (the session jumps its own
        // clock); anything but `Progressed` ends the run, so a logic error
        // cannot spin forever.
        while let StepOutcome::Progressed = session.step()? {}
        Ok(session.finish())
    }

    /// Converts the loop into a fleet-mode [`ReplicaSession`]: arrivals
    /// come from [`ReplicaSession::inject`] instead of an owned stream, and
    /// an external event loop drives [`ReplicaSession::step`], waking the
    /// session with [`ReplicaSession::wake_to`]. Completed requests are
    /// exposed through [`ReplicaSession::drain_completions`] for
    /// fleet-level (per-tenant) SLO accounting.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Fault`] when the configured fault schedule is
    /// invalid for the deployment.
    pub fn into_replica(self) -> Result<ReplicaSession, ServeError> {
        self.into_session(None)
    }

    /// Builds the run-state session. `stream` is `Some` for single-replica
    /// mode (the session owns its future arrivals) and `None` for fleet
    /// mode (arrivals are injected).
    fn into_session(self, stream: Option<Vec<TimedRequest>>) -> Result<ReplicaSession, ServeError> {
        let gpus = self.healthy.total_gpus();
        let faults = self.opts.faults.clone().map(|f| FaultLayer::new(f, gpus)).transpose()?;
        let mut metrics = Metrics::new();
        let ids = StepMetrics::resolve(&mut metrics);
        Ok(ReplicaSession {
            engine: self.engine,
            state: ReplicaState::new(self.exec, self.opts.adjust_threshold, AdmissionQueue::new()),
            detector: DriftDetector::new(self.opts.drift),
            opts: self.opts,
            healthy: self.healthy,
            original: self.original,
            workload_refit: false,
            planned_removed: 0,
            stream: stream.map(|v| v.into_iter().peekable()),
            inbox: VecDeque::new(),
            done: Vec::new(),
            metrics,
            ids,
            events: EventLog::new(),
            slo_out: SloOutcome::default(),
            pending_swap: None,
            swap_cost_total: 0.0,
            last_completion: 0.0,
            faults,
            outbox: Vec::new(),
        })
    }
}

/// Outcome of one [`ReplicaSession::step`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepOutcome {
    /// Work was performed (a phase ran, a swap was installed, or the
    /// single-replica loop jumped its clock to the next wake point); step
    /// again at the session's current time.
    Progressed,
    /// Nothing can run at the current time. `until` is the next virtual
    /// time the session can make progress on its own (a retry backoff
    /// elapsing, or an already injected future arrival); `None` means the
    /// session is quiescent and only a new injection can create work.
    /// Fleet mode only — in stream mode the session jumps its own clock.
    Parked {
        /// Self-wake time, if the session has future work queued.
        until: Option<f64>,
    },
    /// Stream mode only: arrivals, retries and the pool are all drained —
    /// the run is complete.
    Done,
}

/// A completed request as surfaced to a fleet router for per-tenant SLO
/// accounting (all latencies in virtual seconds from the request's
/// original arrival — a rerouted request keeps its first arrival stamp).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// Completion time.
    pub t: f64,
    /// Time to first token.
    pub ttft: f64,
    /// Per-generated-token latency (outputs > 1 token).
    pub per_token: Option<f64>,
    /// End-to-end latency.
    pub e2e: f64,
    /// Queueing delay (arrival → encode start).
    pub queue_wait: f64,
}

impl Completion {
    /// The accounting of a query that generated its last token at `t`.
    fn new(f: &Finished, t: f64) -> Self {
        let outputs = f.req.output_len;
        Self {
            id: f.req.id,
            t,
            ttft: f.t_first - f.arrival,
            per_token: (outputs > 1).then(|| (t - f.t_first) / (outputs - 1) as f64),
            e2e: t - f.arrival,
            queue_wait: f.t_encoded - f.arrival,
        }
    }
}

/// The sorted latency samples of a finished session
/// ([`ReplicaSession::finish_with_samples`]): one per completion, the
/// samples its report's `e2e` and `queue_wait` summaries are read from.
#[derive(Debug)]
pub struct LatencySamples {
    /// End-to-end latencies.
    pub e2e: SortedSample,
    /// Queueing delays.
    pub queue_wait: SortedSample,
}

/// Run state of one serving replica, stepped one phase boundary at a time.
///
/// Created by [`ServeLoop::run`] (stream mode, driven internally) or
/// [`ServeLoop::into_replica`] (fleet mode, driven by an external event
/// loop). Both drive the same [`step`](Self::step), so fleet-of-one
/// execution reproduces the single-replica event log byte-for-byte.
pub struct ReplicaSession {
    engine: Engine,
    /// The installed plan, queue, pool, KV cache and clock.
    state: ReplicaState,
    opts: ServeOptions,
    healthy: ClusterSpec,
    original: ScheduleConfig,
    /// Whether a drift reschedule refit the workload (invalidates the
    /// verbatim-restore shortcut).
    workload_refit: bool,
    /// Devices removed from the topology by the currently planned-for
    /// degradation (0 = plan assumes the full cluster).
    planned_removed: usize,
    /// `Some` in stream mode: the session knows its future arrivals and
    /// jumps its own clock. `None` in fleet mode: arrivals land in `inbox`.
    stream: Option<std::iter::Peekable<std::vec::IntoIter<TimedRequest>>>,
    /// Externally injected arrivals (fleet mode; always empty in stream
    /// mode).
    inbox: VecDeque<TimedRequest>,
    /// Queries finished in this step's phase, with their completion times.
    done: Vec<(Finished, f64)>,
    metrics: Metrics,
    /// Handles of the metrics updated every step.
    ids: StepMetrics,
    events: EventLog,
    slo_out: SloOutcome,
    detector: DriftDetector,
    pending_swap: Option<PendingSwap>,
    swap_cost_total: f64,
    last_completion: f64,
    /// `None` when the fault layer is off.
    faults: Option<FaultLayer>,
    /// Completions for a fleet router (fleet mode only).
    outbox: Vec<Completion>,
}

/// Handles of the metrics the serve step updates per phase or request,
/// resolved once when the session is built.
#[derive(Debug, Clone, Copy)]
struct StepMetrics {
    arrivals: CounterId,
    admitted: CounterId,
    rounds: CounterId,
    encode_phases: CounterId,
    decode_iters: CounterId,
    completions: CounterId,
    ttft: HistogramId,
    e2e: HistogramId,
    queue_wait: HistogramId,
    per_token: HistogramId,
    queue_depth: GaugeId,
    pool_size: GaugeId,
}

impl StepMetrics {
    fn resolve(m: &mut Metrics) -> Self {
        Self {
            arrivals: m.counter_id("arrivals"),
            admitted: m.counter_id("admitted"),
            rounds: m.counter_id("rounds"),
            encode_phases: m.counter_id("encode_phases"),
            decode_iters: m.counter_id("decode_iters"),
            completions: m.counter_id("completions"),
            ttft: m.histogram_id("ttft"),
            e2e: m.histogram_id("e2e"),
            queue_wait: m.histogram_id("queue_wait"),
            per_token: m.histogram_id("per_token"),
            queue_depth: m.gauge_id("queue_depth"),
            pool_size: m.gauge_id("pool_size"),
        }
    }
}

impl ReplicaSession {
    /// The session's current virtual time.
    pub fn now(&self) -> f64 {
        self.state.t
    }

    /// The schedule currently installed.
    pub fn schedule(&self) -> ScheduleConfig {
        self.state.exec().schedule()
    }

    /// Advances the clock to `t`, logging the idle gap the single-replica
    /// loop would log before its own jump. No-op unless `t > now()`.
    pub fn wake_to(&mut self, t: f64) {
        if t > self.state.t {
            self.events.push(Event::Idle { from: self.state.t, until: t });
            self.state.t = t;
        }
    }

    /// Moves the clock forward *without* logging, for replicas spawned
    /// mid-run (deploy completion): the session's life starts at `t`
    /// rather than recording a fictitious idle period since time zero.
    /// Intended before the first step; never moves the clock backwards.
    pub fn skip_to(&mut self, t: f64) {
        self.state.t = self.state.t.max(t);
    }

    /// Queues an externally routed arrival (fleet mode); it is ingested at
    /// the first step whose time has reached `req.arrival`.
    pub fn inject(&mut self, req: TimedRequest) {
        self.inbox.push_back(req);
    }

    /// Requests queued or in flight (pending + pool + retries + inbox).
    pub fn outstanding(&self) -> usize {
        let retries = self.faults.as_ref().map_or(0, |f| f.retry.len());
        self.state.queue.len() + self.state.pool().len() + retries + self.inbox.len()
    }

    /// Unreserved KV-cache bytes on the bottleneck GPU, the router signal
    /// for KV-aware dispatch.
    pub fn kv_headroom_bytes(&self) -> u64 {
        let kv = self.state.kv();
        kv.capacity_bytes().saturating_sub(kv.used_bytes())
    }

    /// The installed plan's estimated per-request latency in seconds, the
    /// router signal for SLO-aware dispatch.
    pub fn plan_latency(&self) -> f64 {
        self.state.exec().estimate().latency.as_secs()
    }

    /// Moves the completions recorded since the last call onto the end of
    /// `out` (fleet mode; none unless the session was created by
    /// [`ServeLoop::into_replica`]). Both buffers keep their capacity, so a
    /// caller that reuses `out` allocates nothing per step.
    pub fn drain_completions(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.outbox);
    }

    /// Drains every queued and in-flight request for rerouting: pending,
    /// pool (KV entries released; generation restarts on the target
    /// replica), retries in eligibility order, then the inbox. Original
    /// arrival stamps are kept, so rerouted latencies include the loss.
    pub fn extract_queued(&mut self) -> Vec<TimedRequest> {
        let mut out = self.state.queue.take_all();
        self.state.clear_pool(|r| out.push(r));
        if let Some(f) = self.faults.as_mut() {
            out.extend(f.retry.drain(..).map(|(_, r)| r));
        }
        out.extend(self.inbox.drain(..));
        out
    }

    /// Runs one loop iteration (phase boundary) at the current time: fault
    /// replay, pending-swap install, retry re-admission, arrival ingestion,
    /// §5.2 admission, one phase/round, straggler confirmation, completion
    /// accounting, and (adaptive mode) a drift reschedule.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Run`] if execution stalls (a query can never
    /// fit in the KV cache) or a batch falls outside the profiled range.
    pub fn step(&mut self) -> Result<StepOutcome, ServeError> {
        self.replay_faults()?;
        if let Some(swap) = self.pending_swap.take() {
            self.install(swap)?;
        }
        if let Some(f) = self.faults.as_mut() {
            f.readmit(&mut self.state);
        }
        self.ingest_arrivals();
        match self.state.admit()? {
            Admission::Run => {}
            // Only arrived requests are queued, so the clock never jumps
            // here; a jump would be progress all the same.
            Admission::Idle => return Ok(StepOutcome::Progressed),
            Admission::Drained => return Ok(self.idle()),
        }
        let phase = self.run_phase()?;
        if let Some(f) = self.faults.as_mut() {
            f.confirm_straggler(&phase, self.state.t, &mut self.metrics, &mut self.events);
        }
        let drift_declared = self.account_completions();
        if drift_declared && self.opts.adaptive && self.pending_swap.is_none() {
            self.pending_swap = self.reschedule().map(|cfg| PendingSwap { cfg, engine: None });
        }
        Ok(StepOutcome::Progressed)
    }

    /// Fault replay: activations, detections (aborting the pool), and a
    /// replan when the topology changed.
    fn replay_faults(&mut self) -> Result<(), ServeError> {
        let Some(f) = self.faults.as_mut() else {
            return Ok(());
        };
        let removed = f.replay(&mut self.state, &mut self.metrics, &mut self.events);
        if removed != self.planned_removed {
            self.pending_swap = self.fault_replan(removed)?;
            self.planned_removed = removed;
        }
        Ok(())
    }

    /// Installs a pending plan swap at the phase boundary, paying its cost
    /// in virtual time.
    fn install(&mut self, swap: PendingSwap) -> Result<(), ServeError> {
        let topology_change = swap.engine.is_some();
        if let Some(engine) = swap.engine {
            self.engine = engine;
        }
        let exec = PhaseExecutor::new(self.engine.simulator(), &swap.cfg)?;
        let cost = if topology_change {
            // A topology change always redeploys from DRAM and re-migrates
            // the resident KV cache across the new layout (zero when the
            // pool was aborted).
            self.engine.deploy_time(LoadSource::Dram).as_secs()
                + exec.kv_migration_time(self.state.kv().used_bytes()).as_secs()
        } else {
            swap_cost(&self.engine, &self.state.exec().schedule(), &swap.cfg)
        };
        self.state.t += cost;
        self.state.install(exec);
        let migrated = self.state.pool().len();
        self.events.push(Event::PlanSwap { t: self.state.t, cost, migrated });
        self.metrics.inc("plan_swaps");
        self.swap_cost_total += cost;
        Ok(())
    }

    /// Queues the arrivals up to the current virtual time.
    fn ingest_arrivals(&mut self) {
        let t = self.state.t;
        while let Some(r) = self.stream.as_mut().and_then(|s| s.next_if(|r| r.arrival <= t)) {
            self.arrive(r);
        }
        while let Some(r) = self.inbox.pop_front_if(|r| r.arrival <= t) {
            self.arrive(r);
        }
    }

    /// Nothing is queued or in flight: ends a stream run, parks a fleet
    /// replica, or jumps the clock to the session's next self-owned work.
    fn idle(&mut self) -> StepOutcome {
        // Self-owned work: the next arrival of the stream or, in fleet
        // mode, a future-dated injection; and the next retry.
        let next_arrival = match self.stream.as_mut() {
            Some(upcoming) => upcoming.peek().map(|r| r.arrival),
            None => self.inbox.iter().map(|r| r.arrival).reduce(f64::min),
        };
        let next_retry = self.faults.as_ref().and_then(|f| f.retry.front()).map(|&(at, _)| at);
        if next_arrival.is_none() && next_retry.is_none() {
            // A stream run is complete. A fleet replica is quiescent and —
            // mirroring that termination rule — does not ask to be woken
            // for fault events alone; the fault world catches up at the
            // next injection.
            return match self.stream {
                Some(_) => StepOutcome::Done,
                None => StepOutcome::Parked { until: None },
            };
        }
        // Wake at whichever comes first: an arrival, a retry becoming
        // eligible, or the fault world changing (an event firing or a
        // failure detection maturing — otherwise a mid-idle failure would
        // go unnoticed until the next arrival and the first phase after it
        // would run on the dead topology).
        let next_fault =
            self.faults.as_ref().and_then(|f| f.next_wake()).filter(|&w| w > self.state.t);
        let wake = [next_arrival, next_retry, next_fault]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        if self.stream.is_none() {
            // Fleet mode: park instead of jumping — the fleet clock owns
            // inter-replica ordering.
            return StepOutcome::Parked { until: Some(wake) };
        }
        self.events.push(Event::Idle { from: self.state.t, until: wake });
        self.state.t = wake;
        StepOutcome::Progressed
    }

    /// Runs the admitted batch through one phase (RRA) or round (WAA) and
    /// logs it. Active faults dilate the plan's timings: the worst live
    /// straggler scales compute, link degradation the KV handover.
    fn run_phase(&mut self) -> Result<PhaseRecord, ServeError> {
        let factors = self.faults.as_ref().map_or(FaultFactors::nominal(), |f| f.factors());
        self.done.clear();
        let done = &mut self.done;
        let r = self.state.run_phase(factors, |f, t| done.push((f, t)))?;
        let (admitted, ids) = (r.admitted, self.ids);
        if admitted > 0 {
            self.metrics.add_at(ids.admitted, admitted as u64);
        }
        if r.coupled {
            self.metrics.inc_at(ids.rounds);
            let [t_start, t_end] = r.span;
            self.events.push(Event::Round { t_start, t_end, admitted, pool: r.pool });
        } else {
            if admitted > 0 {
                self.metrics.inc_at(ids.encode_phases);
                let ([t_start, t_end], queue_depth) = (r.encode, self.state.queue.len());
                self.events.push(Event::Encode { t_start, t_end, admitted, queue_depth });
            }
            self.metrics.add_at(ids.decode_iters, r.iters as u64);
            let [t_start, t_end] = r.decode;
            let (iters, completed) = (r.iters, self.done.len());
            self.events.push(Event::Decode { t_start, t_end, iters, completed });
        }
        Ok(r)
    }

    /// Accounts this step's completions: SLO, metrics, outbox and drift.
    /// Returns whether drift was declared.
    fn account_completions(&mut self) -> bool {
        let scheduled_mean = self.state.exec().simulator().workload().output().mean();
        let mut drift_declared = false;
        let ids = self.ids;
        for &(f, t) in &self.done {
            let d = Completion::new(&f, t);
            self.metrics.inc_at(ids.completions);
            self.metrics.observe_at(ids.ttft, d.ttft);
            self.metrics.observe_at(ids.e2e, d.e2e);
            self.metrics.observe_at(ids.queue_wait, d.queue_wait);
            if let Some(pt) = d.per_token {
                self.metrics.observe_at(ids.per_token, pt);
            }
            let check = self.opts.slo.check(
                Secs::new(d.ttft),
                d.per_token.map(Secs::new),
                Secs::new(d.e2e),
            );
            self.slo_out.record(check);
            self.events.push(Event::Completion {
                t: d.t,
                id: d.id,
                ttft: d.ttft,
                e2e: d.e2e,
                violated: check.violated(),
            });
            self.last_completion = d.t;
            if self.stream.is_none() {
                self.outbox.push(d);
            }
            if let Some(c) = self.detector.observe(f.req.output_len, scheduled_mean) {
                self.metrics.inc("drift_checks");
                self.events.push(Event::DriftCheck {
                    t: d.t,
                    window_mean: c.window_mean,
                    scheduled_mean: c.scheduled_mean,
                    rel_shift: c.rel_shift,
                    drifted: c.drifted,
                });
                drift_declared |= c.drifted;
            }
        }
        self.metrics.gauge_at(ids.queue_depth, self.state.queue.len() as f64);
        self.metrics.gauge_at(ids.pool_size, self.state.pool().len() as f64);
        drift_declared
    }

    /// Logs an arrival and queues it for admission.
    fn arrive(&mut self, r: TimedRequest) {
        self.events.push(Event::Arrival {
            t: r.arrival,
            id: r.request.id,
            input_len: r.request.input_len,
            output_len: r.request.output_len,
        });
        self.metrics.inc_at(self.ids.arrivals);
        self.state.queue.push(r);
    }

    /// Consumes the session into its final report.
    pub fn finish(self) -> ServeReport {
        self.finish_with_samples().0
    }

    /// [`finish`](Self::finish), also returning the session's sorted
    /// `e2e` and `queue_wait` samples, the ones its report summarizes, so
    /// a fleet rolls sessions up by merging instead of sorting again.
    pub fn finish_with_samples(mut self) -> (ServeReport, LatencySamples) {
        let completed = self.slo_out.checked;
        let makespan = self.last_completion;
        let throughput = if makespan > 0.0 { completed as f64 / makespan } else { 0.0 };
        self.metrics.gauge("swap_cost_total", self.swap_cost_total);
        self.metrics.gauge("kv_peak_bytes", self.state.peak_kv_bytes() as f64);
        // One snapshot, each histogram sorted once: the report's summaries
        // and counters are read from it.
        let (metrics, [e2e, queue_wait]) =
            self.metrics.into_snapshot_keeping([self.ids.e2e, self.ids.queue_wait]);
        let summary = |name: &str| metrics.summaries.get(name).copied();
        let count = |name: &str| metrics.counters.get(name).map_or(0, |&n| n as usize);
        let report = ServeReport {
            completed,
            tokens_generated: self.state.pool().tokens(),
            makespan,
            throughput,
            ttft: summary("ttft"),
            per_token: summary("per_token"),
            e2e: summary("e2e"),
            queue_wait: summary("queue_wait"),
            slo: self.slo_out,
            drift_checks: count("drift_checks"),
            reschedules: count("reschedules"),
            plan_swaps: count("plan_swaps"),
            swap_cost: self.swap_cost_total,
            faults_injected: count("faults_injected"),
            faults_detected: count("faults_detected"),
            stragglers_detected: count("stragglers_detected"),
            replans: count("replans"),
            replan_fallbacks: 0,
            retries: count("retries"),
            requests_lost: count("requests_lost"),
            final_schedule: self.state.exec().schedule().describe(),
            metrics,
            events: self.events,
        };
        (report, LatencySamples { e2e, queue_wait })
    }

    /// Refits the output distribution to the drift window and re-runs the
    /// scheduler on the warm engine. Returns the new plan to install at the
    /// next phase boundary, or `None` if refitting/scheduling failed (the
    /// loop keeps serving on the old plan either way).
    fn reschedule(&mut self) -> Option<ScheduleConfig> {
        let result = match self.detector.refit() {
            Err(e) => Err(ServeError::from(e)),
            Ok(refit) => {
                let workload = Workload::new(
                    self.state.exec().simulator().workload().input().clone(),
                    refit.dist.clone(),
                );
                self.metrics.gauge("refit_mean", refit.dist.mean());
                self.engine.reschedule(workload, &self.opts.scheduler).map_err(ServeError::from)
            }
        };
        self.detector.reset();
        match result {
            Ok(schedule) => {
                self.workload_refit = true;
                self.metrics.inc("reschedules");
                self.events.push(Event::Reschedule {
                    t: self.state.t,
                    from: self.state.exec().schedule().describe().into(),
                    to: schedule.config.describe().into(),
                    refit_mean: self.engine.simulator().workload().output().mean(),
                });
                // Install even an identical config: the executor must be
                // rebound to the refitted workload so drift is measured
                // against what the scheduler last optimized for.
                Some(schedule.config)
            }
            Err(e) => {
                self.metrics.inc("reschedule_failures");
                self.events
                    .push(Event::RescheduleFailed { t: self.state.t, why: e.to_string().into() });
                None
            }
        }
    }

    /// Replans for a changed topology: `removed == 0` targets the healthy
    /// cluster (recovery), anything else its survivors (failover /
    /// straggler eviction). On full recovery with no interleaved workload
    /// refit, the pre-fault plan is reinstalled verbatim — no search — so
    /// recovery provably restores the original deployment.
    ///
    /// Failover searches under the configured scheduler options first, on
    /// an engine that shares the evaluation cache, and retries under an
    /// unconstrained bound (serving degraded beats not serving); a failover
    /// with no feasible plan at all is fatal.
    fn fault_replan(&mut self, removed: usize) -> Result<Option<PendingSwap>, ServeError> {
        let spec =
            if removed == 0 { self.healthy.clone() } else { self.healthy.survivors(removed)? };
        let gpus = spec.total_gpus();
        let failover = removed > self.planned_removed;
        let reason = if failover { "failover" } else { "recovery" };
        let engine = self.engine.with_cluster(spec);
        let restored = removed == 0 && !self.workload_refit;
        let chosen: Result<ScheduleConfig, exegpt::ScheduleError> = if restored {
            Ok(self.original)
        } else {
            engine
                .schedule_with(&self.opts.scheduler)
                .or_else(|_| engine.schedule_with(&SchedulerOptions::bounded(Secs::INFINITY)))
                .map(|s| s.config)
        };
        match chosen {
            Ok(cfg) => {
                self.metrics.inc("replans");
                self.events.push(Event::Replan {
                    t: self.state.t,
                    reason: reason.into(),
                    gpus,
                    to: cfg.describe().into(),
                    restored,
                });
                Ok(Some(PendingSwap { cfg, engine: Some(engine) }))
            }
            Err(e) => {
                self.metrics.inc("replan_failures");
                self.events
                    .push(Event::ReplanFailed { t: self.state.t, why: e.to_string().into() });
                if failover {
                    Err(ServeError::Failover { survivors: gpus, why: e.to_string() })
                } else {
                    // A failed recovery replan keeps serving on the
                    // degraded (but working) plan.
                    Ok(None)
                }
            }
        }
    }
}

/// Virtual cost of swapping from `old` to `new`.
///
/// RRA time-shares every GPU between encode and decode, so changing `B_E` /
/// `N_D` is a pure runtime adjustment; only a tensor-parallelism change
/// re-partitions the deployment. WAA physically splits GPUs into encoder
/// and decoder groups, so any config change re-allocates and pays a
/// DRAM-sourced redeployment (§7.7, Table 4).
fn swap_cost(engine: &Engine, old: &ScheduleConfig, new: &ScheduleConfig) -> f64 {
    match (old, new) {
        (ScheduleConfig::Rra(a), ScheduleConfig::Rra(b)) if a.tp == b.tp => 0.0,
        (ScheduleConfig::Waa(a), ScheduleConfig::Waa(b)) if a == b => 0.0,
        _ => engine.deploy_time(LoadSource::Dram).as_secs(),
    }
}
