//! The online serving loop: discrete-event execution of an arrival stream
//! against a live, swappable schedule.
//!
//! The loop body lives in [`ReplicaSession::step`]: one call performs one
//! phase boundary (fault replay, plan-swap install, admission, one
//! phase/round, completion accounting). [`ServeLoop::run`] drives a session
//! to completion over its own arrival stream — the classic single-replica
//! mode — while [`ServeLoop::into_replica`] yields the same session in
//! *fleet* mode ([`ReplicaStep`]): arrivals are injected by an external
//! router, the session never jumps its own clock past a parked point, and
//! a fleet event loop interleaves many sessions on one virtual clock.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use exegpt::{
    DynamicAdjuster, Engine, Replan, ReplanDelta, Schedule, ScheduleConfig, SchedulerOptions,
};
use exegpt_cluster::{ClusterSpec, LoadSource};
use exegpt_dist::stats::Summary;
use exegpt_runner::{AdmissionQueue, EncodeTiming, KvSlot, KvTracker, PhaseExecutor, RunError};
use exegpt_sim::Workload;
use exegpt_units::Secs;
use exegpt_workload::{Request, TimedRequest};
use serde::Serialize;

use crate::drift::{DriftDetector, DriftOptions};
use crate::error::ServeError;
use crate::events::{Event, EventLog};
use crate::faults::{FaultDriver, FaultFactors, FaultOptions, StragglerDetector};
use crate::metrics::{Metrics, MetricsSnapshot};
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
    /// Replan incrementally from the plan being served (warm-started
    /// neighborhood search with a verified fallback) instead of running the
    /// full search on every drift or fault replan. The chosen plans — and
    /// therefore the event log — are identical either way; only the replan
    /// latency differs.
    pub incremental_replan: bool,
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
            incremental_replan: true,
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
    /// Replans (drift or fault) answered by the incremental path without
    /// falling back to the full search.
    pub incremental_replans: usize,
    /// Incremental replans that took the verified full-search fallback.
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

/// A query in flight through the pipeline.
struct InFlight {
    req: Request,
    progress: usize,
    arrival: f64,
    t_encoded: f64,
    t_first: Option<f64>,
    /// The query's entry in the installed plan's KV tracker.
    slot: KvSlot,
}

/// A query that finished during the current phase.
struct Done {
    id: u64,
    out_len: usize,
    ttft: f64,
    e2e: f64,
    per_token: Option<f64>,
    queue_wait: f64,
    t: f64,
}

/// An aborted request waiting out its retry backoff.
///
/// Ordered as a *min*-heap key on `(eligible_at, id)` (reversed, since
/// [`BinaryHeap`] pops the maximum), so popping yields the same
/// deterministic re-admission order a fully sorted queue would.
struct Retry {
    eligible_at: f64,
    req: TimedRequest,
}

impl PartialEq for Retry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Retry {}

impl PartialOrd for Retry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Retry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .eligible_at
            .total_cmp(&self.eligible_at)
            .then_with(|| other.req.request.id.cmp(&self.req.request.id))
    }
}

/// Reusable per-round buffers of the serving loop. Every round used to
/// allocate these afresh; at thousands of rounds per run the churn showed
/// up in the simulated-requests-per-wall-second numbers.
#[derive(Default)]
struct Scratch {
    /// Input lengths of the admitted batch (encode timing).
    lens: Vec<usize>,
    /// Requests admitted this round with their KV handles (drained into
    /// the pool).
    admitted: Vec<(TimedRequest, KvSlot)>,
    /// Completions harvested this round.
    done: Vec<Done>,
    /// Ids released in one batch on aborts/extractions.
    ids: Vec<u64>,
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
/// additionally replays a [`exegpt_faults::FaultSchedule`] on its virtual
/// clock: stragglers dilate phase timings until a [`StragglerDetector`]
/// confirms them (severe ones are evicted and the plan recomputed), device
/// failures mature through a heartbeat timeout, abort in-flight work into
/// a bounded-backoff retry queue and trigger a replan onto the surviving
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
    /// The most recently planned schedule with its estimate — the incumbent
    /// that incremental replans warm-start from. `None` only when the
    /// installed config cannot be evaluated, which disables the incremental
    /// path (replans then run the full search, as before).
    last_plan: Option<Schedule>,
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
        let last_plan = engine.simulator().evaluate(&original).ok().map(|estimate| Schedule {
            config: original,
            estimate,
            evals: 0,
            cache_hits: 0,
        });
        Ok(Self { engine, exec, opts, healthy, original, last_plan })
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
        let mut session = self.into_session(Some(stream), false)?;
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
    /// exposed through [`ReplicaSession::take_completions`] for fleet-level
    /// (per-tenant) SLO accounting.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Fault`] when the configured fault schedule is
    /// invalid for the deployment.
    pub fn into_replica(self) -> Result<ReplicaSession, ServeError> {
        self.into_session(None, true)
    }

    /// Builds the run-state session. `stream` is `Some` for single-replica
    /// mode (the session owns its future arrivals) and `None` for fleet
    /// mode (arrivals are injected).
    fn into_session(
        self,
        stream: Option<Vec<TimedRequest>>,
        collect_completions: bool,
    ) -> Result<ReplicaSession, ServeError> {
        let fault_opts = self.opts.faults.clone();
        let driver = match &fault_opts {
            Some(f) => Some(
                FaultDriver::new(f.schedule.clone(), self.healthy.total_gpus())?
                    .with_detection_delay(f.detection_delay),
            ),
            None => None,
        };
        let straggler = fault_opts.as_ref().map(|f| StragglerDetector::new(f.straggler));
        let adjuster = self.exec.adjuster(self.opts.adjust_threshold);
        let kv = self.exec.kv_tracker();
        let scheduled_b_d = self.exec.scheduled_decode_batch();
        let detector = DriftDetector::new(self.opts.drift);
        Ok(ReplicaSession {
            engine: self.engine,
            exec: self.exec,
            opts: self.opts,
            healthy: self.healthy,
            original: self.original,
            workload_refit: false,
            planned_removed: 0,
            last_plan: self.last_plan,
            scratch: Scratch::default(),
            stream: stream.map(|v| v.into_iter().peekable()),
            inbox: VecDeque::new(),
            pending: AdmissionQueue::new(),
            pool: Vec::new(),
            t: 0.0,
            metrics: Metrics::new(),
            events: EventLog::new(),
            slo_out: SloOutcome::default(),
            detector,
            adjuster,
            kv,
            scheduled_b_d,
            pending_swap: None,
            tokens: 0,
            swap_cost_total: 0.0,
            peak_kv: 0,
            last_completion: 0.0,
            fault_opts,
            driver,
            straggler,
            retry: BinaryHeap::new(),
            attempts: BTreeMap::new(),
            collect_completions,
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

/// The per-step interface a fleet event loop drives a replica through.
///
/// [`ReplicaSession`] implements this; the single-replica
/// [`ServeLoop::run`] drives the same `step` internally, so fleet-of-one
/// execution reproduces the single-replica event log byte-for-byte.
pub trait ReplicaStep {
    /// The session's current virtual time.
    fn now(&self) -> f64;
    /// Advances the session's clock to `t`, logging the idle gap exactly as
    /// the single-replica loop would. A no-op when `t` is not ahead of
    /// [`now`](Self::now).
    fn wake_to(&mut self, t: f64);
    /// Runs one loop iteration (phase boundary) at the current time.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Run`] if execution stalls or a batch falls
    /// outside the profiled range (same failure modes as
    /// [`ServeLoop::run`]).
    fn step(&mut self) -> Result<StepOutcome, ServeError>;
    /// Queues an externally routed arrival; it is ingested at the first
    /// step whose time has reached `req.arrival`.
    fn inject(&mut self, req: TimedRequest);
    /// Requests queued or in flight (pending + pool + retries + inbox).
    fn outstanding(&self) -> usize;
    /// Unreserved KV-cache bytes on the bottleneck GPU — the router signal
    /// for KV-aware dispatch.
    fn kv_headroom_bytes(&self) -> u64;
    /// The installed plan's estimated per-request latency (seconds) — the
    /// router signal for SLO-aware dispatch.
    fn plan_latency(&self) -> f64;
    /// Drains completions recorded since the last call.
    fn take_completions(&mut self) -> Vec<Completion>;
    /// Drains every queued and in-flight request (for rerouting when the
    /// replica is lost): pending queue, pool (KV released; generation
    /// restarts elsewhere), retry queue, then inbox. Original arrival
    /// stamps are kept so rerouted latencies honestly include the loss.
    fn extract_queued(&mut self) -> Vec<TimedRequest>;
    /// Consumes the session into its final [`ServeReport`].
    fn finish(self) -> ServeReport
    where
        Self: Sized;
}

/// Run state of one serving replica, stepped one phase boundary at a time.
///
/// Created by [`ServeLoop::run`] (stream mode, driven internally) or
/// [`ServeLoop::into_replica`] (fleet mode, driven by an external event
/// loop through the [`ReplicaStep`] interface).
pub struct ReplicaSession {
    engine: Engine,
    exec: PhaseExecutor,
    opts: ServeOptions,
    healthy: ClusterSpec,
    original: ScheduleConfig,
    /// Whether a drift reschedule refit the workload (invalidates the
    /// verbatim-restore shortcut).
    workload_refit: bool,
    /// Devices removed from the topology by the currently planned-for
    /// degradation (0 = plan assumes the full cluster).
    planned_removed: usize,
    last_plan: Option<Schedule>,
    scratch: Scratch,
    /// `Some` in stream mode: the session knows its future arrivals and
    /// jumps its own clock. `None` in fleet mode: arrivals land in `inbox`.
    stream: Option<std::iter::Peekable<std::vec::IntoIter<TimedRequest>>>,
    /// Externally injected arrivals (fleet mode; always empty in stream
    /// mode).
    inbox: VecDeque<TimedRequest>,
    pending: AdmissionQueue,
    pool: Vec<InFlight>,
    t: f64,
    metrics: Metrics,
    events: EventLog,
    slo_out: SloOutcome,
    detector: DriftDetector,
    adjuster: DynamicAdjuster,
    kv: KvTracker,
    scheduled_b_d: usize,
    pending_swap: Option<PendingSwap>,
    tokens: u64,
    swap_cost_total: f64,
    peak_kv: u64,
    last_completion: f64,
    fault_opts: Option<FaultOptions>,
    driver: Option<FaultDriver>,
    straggler: Option<StragglerDetector>,
    retry: BinaryHeap<Retry>,
    attempts: BTreeMap<u64, usize>,
    /// Whether completions are copied into `outbox` for a fleet router.
    collect_completions: bool,
    outbox: Vec<Completion>,
}

impl ReplicaSession {
    /// The session's current virtual time.
    pub fn now(&self) -> f64 {
        self.t
    }

    /// The schedule currently installed.
    pub fn schedule(&self) -> ScheduleConfig {
        self.exec.schedule()
    }

    /// Advances the clock to `t`, logging the idle gap the single-replica
    /// loop would log before its own jump. No-op unless `t > now()`.
    pub fn wake_to(&mut self, t: f64) {
        if t > self.t {
            self.events.push(Event::Idle { from: self.t, until: t });
            self.t = t;
        }
    }

    /// Moves the clock forward *without* logging, for replicas spawned
    /// mid-run (deploy completion): the session's life starts at `t`
    /// rather than recording a fictitious idle period since time zero.
    /// Intended before the first step; never moves the clock backwards.
    pub fn skip_to(&mut self, t: f64) {
        self.t = self.t.max(t);
    }

    /// Queues an externally routed arrival (fleet mode).
    pub fn inject(&mut self, req: TimedRequest) {
        self.inbox.push_back(req);
    }

    /// Requests queued or in flight (pending + pool + retries + inbox).
    pub fn outstanding(&self) -> usize {
        self.pending.len() + self.pool.len() + self.retry.len() + self.inbox.len()
    }

    /// Unreserved KV-cache bytes on the bottleneck GPU.
    pub fn kv_headroom_bytes(&self) -> u64 {
        self.kv.capacity_bytes().saturating_sub(self.kv.used_bytes())
    }

    /// The installed plan's estimated per-request latency in seconds.
    pub fn plan_latency(&self) -> f64 {
        self.exec.estimate().latency.as_secs()
    }

    /// Drains completions recorded since the last call (fleet mode; empty
    /// unless the session was created by [`ServeLoop::into_replica`]).
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.outbox)
    }

    /// Drains every queued and in-flight request for rerouting: pending,
    /// pool (KV entries released in one batch; generation restarts on the
    /// target replica), retries in eligibility order, then the inbox.
    pub fn extract_queued(&mut self) -> Vec<TimedRequest> {
        let mut out = self.pending.take_all();
        self.scratch.ids.clear();
        self.scratch.ids.extend(self.pool.iter().map(|a| a.req.id));
        for a in self.pool.drain(..) {
            out.push(TimedRequest { request: a.req, arrival: a.arrival });
        }
        let ids = std::mem::take(&mut self.scratch.ids);
        self.kv.release_batch(&ids);
        self.scratch.ids = ids;
        while let Some(r) = self.retry.pop() {
            out.push(r.req);
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
        // ---- Fault replay: activations, detections, replans -------------
        if self.fault_opts.is_some() {
            let fired = match self.driver.as_mut() {
                Some(d) => d.advance(self.t),
                None => Vec::new(),
            };
            for e in fired {
                self.metrics.inc("faults_injected");
                self.events.push(Event::Fault { t: e.t, desc: e.kind.to_string() });
            }
            let matured = match self.driver.as_mut() {
                Some(d) => d.mature_detections(self.t),
                None => Vec::new(),
            };
            for (gpu, t_d) in matured {
                // Pay the rest of the heartbeat window if the phase
                // boundary arrived before the timeout elapsed.
                self.t = self.t.max(t_d);
                self.metrics.inc("faults_detected");
                self.events.push(Event::FaultDetected { t: self.t, gpu, aborted: self.pool.len() });
                // The failed device held a KV shard for every in-flight
                // query: abort them all into the retry queue.
                if let Some(fo) = &self.fault_opts {
                    abort_pool(
                        &mut self.pool,
                        &mut self.kv,
                        &mut self.retry,
                        &mut self.attempts,
                        fo,
                        self.t,
                        &mut self.metrics,
                        &mut self.events,
                    );
                }
            }
            let removed = self.driver.as_ref().map_or(self.planned_removed, |d| d.removed());
            if removed != self.planned_removed {
                self.pending_swap = self.fault_replan(removed)?;
                self.planned_removed = removed;
            }
        }

        // ---- Install a pending plan swap at the phase boundary ----------
        if let Some(swap) = self.pending_swap.take() {
            let topology_change = swap.engine.is_some();
            if let Some(engine) = swap.engine {
                self.engine = engine;
            }
            let cfg = swap.cfg;
            let new_exec = PhaseExecutor::new(self.engine.simulator(), &cfg)?;
            let cost = if topology_change {
                // A topology change always redeploys from DRAM and
                // re-migrates the resident KV cache across the new
                // layout (zero when the pool was aborted).
                self.engine.deploy_time(LoadSource::Dram).as_secs()
                    + new_exec.kv_migration_time(self.kv.used_bytes()).as_secs()
            } else {
                swap_cost(&self.engine, &self.exec.schedule(), &cfg)
            };
            self.t += cost;
            self.peak_kv = self.peak_kv.max(self.kv.peak_bytes());
            let mut new_kv = new_exec.kv_tracker();
            for a in &mut self.pool {
                // In-flight KV entries move to the new plan's tracker
                // unconditionally: evicting live queries would violate
                // their SLO by construction.
                a.slot = new_kv.admit_unchecked(a.req.id, a.req.input_len + a.progress);
            }
            self.events.push(Event::PlanSwap { t: self.t, cost, migrated: self.pool.len() });
            self.metrics.inc("plan_swaps");
            self.swap_cost_total += cost;
            self.exec = new_exec;
            self.kv = new_kv;
            self.adjuster = self.exec.adjuster(self.opts.adjust_threshold);
            self.scheduled_b_d = self.exec.scheduled_decode_batch();
        }

        // ---- Re-admit retries whose backoff has elapsed -----------------
        while self.retry.peek().is_some_and(|r| r.eligible_at <= self.t) {
            if let Some(r) = self.retry.pop() {
                self.pending.push(r.req);
            }
        }

        // ---- Ingest arrivals up to the current virtual time -------------
        if let Some(upcoming) = self.stream.as_mut() {
            while let Some(r) = upcoming.peek() {
                if r.arrival > self.t {
                    break;
                }
                self.events.push(Event::Arrival {
                    t: r.arrival,
                    id: r.request.id,
                    input_len: r.request.input_len,
                    output_len: r.request.output_len,
                });
                self.metrics.inc("arrivals");
                self.pending.push(*r);
                upcoming.next();
            }
        }
        while self.inbox.front().is_some_and(|r| r.arrival <= self.t) {
            if let Some(r) = self.inbox.pop_front() {
                self.events.push(Event::Arrival {
                    t: r.arrival,
                    id: r.request.id,
                    input_len: r.request.input_len,
                    output_len: r.request.output_len,
                });
                self.metrics.inc("arrivals");
                self.pending.push(r);
            }
        }

        // ---- Dynamic admission (§5.2) -----------------------------------
        self.pending.admit(
            self.pending.len(),
            &self.adjuster,
            self.pool.len(),
            self.scheduled_b_d,
            &mut self.kv,
            &mut self.scratch.admitted,
        );
        if !self.scratch.admitted.is_empty() {
            self.metrics.add("admitted", self.scratch.admitted.len() as u64);
        }

        if self.scratch.admitted.is_empty() && self.pool.is_empty() {
            if self.pending.is_empty() {
                let next_retry = self.retry.peek().map(|r| r.eligible_at);
                match self.stream.as_mut() {
                    Some(upcoming) => {
                        let next_arrival = upcoming.peek().map(|r| r.arrival);
                        if next_arrival.is_none() && next_retry.is_none() {
                            // Stream and retry queue drained, nothing in
                            // flight: the run is complete.
                            return Ok(StepOutcome::Done);
                        }
                        // Wake at whichever comes first: an arrival, a
                        // retry becoming eligible, or the fault world
                        // changing (an event firing or a failure detection
                        // maturing — otherwise a mid-idle failure would go
                        // unnoticed until the next arrival and the first
                        // phase after it would run on the dead topology).
                        let next_fault = self
                            .driver
                            .as_ref()
                            .and_then(|d| d.next_wake())
                            .filter(|&w| w > self.t);
                        let mut wake = f64::INFINITY;
                        for c in [next_arrival, next_retry, next_fault].into_iter().flatten() {
                            wake = wake.min(c);
                        }
                        self.events.push(Event::Idle { from: self.t, until: wake });
                        self.t = wake;
                        return Ok(StepOutcome::Progressed);
                    }
                    None => {
                        // Fleet mode: park instead of jumping — the fleet
                        // clock owns inter-replica ordering. A future-dated
                        // injection also counts as self-owned work. With no
                        // queued work at all the session is quiescent and
                        // — mirroring the single-replica termination rule —
                        // does not ask to be woken for fault events alone;
                        // the fault world catches up at the next injection.
                        let next_inbox =
                            self.inbox.iter().map(|r| r.arrival).fold(f64::INFINITY, f64::min);
                        let next_inbox =
                            if next_inbox.is_finite() { Some(next_inbox) } else { None };
                        if next_retry.is_none() && next_inbox.is_none() {
                            return Ok(StepOutcome::Parked { until: None });
                        }
                        let next_fault = self
                            .driver
                            .as_ref()
                            .and_then(|d| d.next_wake())
                            .filter(|&w| w > self.t);
                        let mut wake = f64::INFINITY;
                        for c in [next_retry, next_inbox, next_fault].into_iter().flatten() {
                            wake = wake.min(c);
                        }
                        return Ok(StepOutcome::Parked { until: Some(wake) });
                    }
                }
            }
            return Err(self.pending.stalled().into());
        }

        // ---- Execute one phase (RRA) or round (WAA) ---------------------
        // Active faults dilate the plan's timings at runtime: the
        // worst live straggler scales compute, link degradation scales
        // the KV handover. All factors are exactly 1 when nominal, so
        // the arithmetic below is bit-identical to the fault-free path.
        let factors = self.driver.as_ref().map_or(FaultFactors::nominal(), |d| d.factors());
        let mut phase_base = 0.0f64;
        let mut phase_actual = 0.0f64;
        self.scratch.done.clear();
        if self.exec.is_coupled() {
            let n_admitted = self.scratch.admitted.len();
            let (p_enc, enc_tokens) = if self.scratch.admitted.is_empty() {
                (0.0, 0.0)
            } else {
                let enc = self.encode_admitted()?;
                (enc.bottleneck.as_secs(), enc.tokens)
            };
            let p_dec = if self.pool.is_empty() {
                0.0
            } else {
                let b_m = self.exec.decode_parallelism(self.pool.len());
                let ctx = mean_context(&self.pool);
                self.exec.decode_timing(b_m, self.pool.len(), ctx, false)?.total.as_secs()
            };
            let t_kv_base = self.exec.handover_time(enc_tokens).as_secs();
            let t_kv = if t_kv_base > 0.0 {
                t_kv_base * factors.link_time + factors.link_latency
            } else {
                t_kv_base
            };
            let round = (p_enc * factors.dilation).max(p_dec * factors.dilation).max(t_kv);
            phase_base = p_enc.max(p_dec).max(t_kv_base);
            phase_actual = round;
            let t_start = self.t;
            let pool_during = self.pool.len();
            self.t += round;
            if !self.pool.is_empty() {
                self.tokens += self.pool.len() as u64;
                // The encoder group's fresh admissions are resident but not
                // pooled, so growth goes per query, through each handle.
                advance(&mut self.pool, &mut self.kv, self.t, &mut self.scratch.done, true);
            }
            self.metrics.inc("rounds");
            self.events.push(Event::Round {
                t_start,
                t_end: self.t,
                admitted: n_admitted,
                pool: pool_during,
            });
            for (r, slot) in self.scratch.admitted.drain(..) {
                self.pool.push(InFlight {
                    req: r.request,
                    progress: 0,
                    arrival: r.arrival,
                    t_encoded: t_start,
                    t_first: None,
                    slot,
                });
            }
        } else {
            if !self.scratch.admitted.is_empty() {
                let enc = self.encode_admitted()?;
                let t_start = self.t;
                let dt = enc.total.as_secs();
                self.t += dt * factors.dilation;
                phase_base += dt;
                phase_actual += dt * factors.dilation;
                self.metrics.inc("encode_phases");
                self.events.push(Event::Encode {
                    t_start,
                    t_end: self.t,
                    admitted: self.scratch.admitted.len(),
                    queue_depth: self.pending.len(),
                });
                for (r, slot) in self.scratch.admitted.drain(..) {
                    self.pool.push(InFlight {
                        req: r.request,
                        progress: 0,
                        arrival: r.arrival,
                        t_encoded: t_start,
                        t_first: None,
                        slot,
                    });
                }
            }
            let m_d = self.exec.decode_parallelism(self.pool.len());
            let t_start = self.t;
            let mut iters = 0usize;
            for u in 0..self.exec.decode_iters_per_phase() {
                if self.pool.is_empty() {
                    break;
                }
                let ctx = mean_context(&self.pool);
                let dec = self.exec.decode_timing(m_d, self.pool.len(), ctx, u == 0)?;
                let dt = dec.total.as_secs();
                self.t += dt * factors.dilation;
                phase_base += dt;
                phase_actual += dt * factors.dilation;
                self.tokens += self.pool.len() as u64;
                iters += 1;
                // RRA decode: the resident set is exactly the pool, so KV
                // growth is one bulk arena scan.
                self.kv.grow_all(1);
                advance(&mut self.pool, &mut self.kv, self.t, &mut self.scratch.done, false);
            }
            self.metrics.add("decode_iters", iters as u64);
            self.events.push(Event::Decode {
                t_start,
                t_end: self.t,
                iters,
                completed: self.scratch.done.len(),
            });
        }

        // ---- Straggler confirmation from observed phase timings ---------
        if let (Some(drv), Some(det), Some(fo)) =
            (self.driver.as_mut(), self.straggler.as_mut(), self.fault_opts.as_ref())
        {
            if det.observe(phase_actual, phase_base).is_some() {
                // Link degradation also inflates the ratio; only a
                // device that is actually slowed can be blamed (and
                // possibly evicted).
                if let Some((gpu, factor)) = drv.worst_slowed_gpu() {
                    let evict = factor >= fo.evict_slowdown;
                    self.metrics.inc("stragglers_detected");
                    self.events.push(Event::StragglerDetected {
                        t: self.t,
                        gpu,
                        factor,
                        evicted: evict,
                    });
                    if evict {
                        // Removing it changes `removed()`: the next
                        // step's fault replay replans onto the survivors.
                        drv.evict(gpu);
                    }
                }
            }
        }

        // ---- Account completions: SLO, metrics, drift -------------------
        let scheduled_mean = self.exec.simulator().workload().output().mean();
        let mut drift_declared = false;
        for d in &self.scratch.done {
            self.metrics.inc("completions");
            self.metrics.observe("ttft", d.ttft);
            self.metrics.observe("e2e", d.e2e);
            self.metrics.observe("queue_wait", d.queue_wait);
            if let Some(pt) = d.per_token {
                self.metrics.observe("per_token", pt);
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
            if self.collect_completions {
                self.outbox.push(Completion {
                    id: d.id,
                    t: d.t,
                    ttft: d.ttft,
                    per_token: d.per_token,
                    e2e: d.e2e,
                    queue_wait: d.queue_wait,
                });
            }
            if let Some(c) = self.detector.observe(d.out_len, scheduled_mean) {
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
        self.metrics.gauge("queue_depth", self.pending.len() as f64);
        self.metrics.gauge("pool_size", self.pool.len() as f64);

        // ---- Live reschedule on declared drift --------------------------
        if drift_declared && self.opts.adaptive && self.pending_swap.is_none() {
            self.pending_swap = self.reschedule().map(|cfg| PendingSwap { cfg, engine: None });
        }
        Ok(StepOutcome::Progressed)
    }

    /// Times the encoding of this step's (non-empty) admitted batch.
    fn encode_admitted(&mut self) -> Result<EncodeTiming, RunError> {
        self.scratch.lens.clear();
        self.scratch.lens.extend(self.scratch.admitted.iter().map(|(r, _)| r.request.input_len));
        self.exec.encode_timing(&self.scratch.lens)
    }

    /// Consumes the session into its final report.
    pub fn finish(mut self) -> ServeReport {
        self.peak_kv = self.peak_kv.max(self.kv.peak_bytes());
        let completed = self.slo_out.checked;
        let makespan = self.last_completion;
        let throughput = if makespan > 0.0 { completed as f64 / makespan } else { 0.0 };
        self.metrics.gauge("swap_cost_total", self.swap_cost_total);
        self.metrics.gauge("kv_peak_bytes", self.peak_kv as f64);
        ServeReport {
            completed,
            tokens_generated: self.tokens,
            makespan,
            throughput,
            ttft: self.metrics.summary("ttft"),
            per_token: self.metrics.summary("per_token"),
            e2e: self.metrics.summary("e2e"),
            queue_wait: self.metrics.summary("queue_wait"),
            slo: self.slo_out,
            drift_checks: self.metrics.counter("drift_checks") as usize,
            reschedules: self.metrics.counter("reschedules") as usize,
            plan_swaps: self.metrics.counter("plan_swaps") as usize,
            swap_cost: self.swap_cost_total,
            faults_injected: self.metrics.counter("faults_injected") as usize,
            faults_detected: self.metrics.counter("faults_detected") as usize,
            stragglers_detected: self.metrics.counter("stragglers_detected") as usize,
            replans: self.metrics.counter("replans") as usize,
            incremental_replans: self.metrics.counter("incremental_replans") as usize,
            replan_fallbacks: self.metrics.counter("replan_fallbacks") as usize,
            retries: self.metrics.counter("retries") as usize,
            requests_lost: self.metrics.counter("requests_lost") as usize,
            final_schedule: self.exec.schedule().describe(),
            metrics: self.metrics.snapshot(),
            events: self.events,
        }
    }

    /// Refits the output distribution to the drift window and re-runs the
    /// scheduler on the warm engine — incrementally from the served plan
    /// when [`ServeOptions::incremental_replan`] is on. Returns the new
    /// plan to install at the next phase boundary, or `None` if
    /// refitting/scheduling failed (the loop keeps serving on the old plan
    /// either way).
    fn reschedule(&mut self) -> Option<ScheduleConfig> {
        let result: Result<Schedule, ServeError> = match self.detector.refit() {
            Err(e) => Err(ServeError::from(e)),
            Ok(refit) => {
                let workload = Workload::new(
                    self.exec.simulator().workload().input().clone(),
                    refit.dist.clone(),
                );
                self.metrics.gauge("refit_mean", refit.dist.mean());
                match self.opts.incremental_replan.then(|| self.last_plan.clone()).flatten() {
                    Some(inc) => {
                        match self.engine.reschedule_incremental(
                            workload,
                            &inc,
                            &self.opts.scheduler,
                        ) {
                            Ok(replan) => Ok(track_replan(replan, &mut self.metrics)),
                            Err(e) => Err(ServeError::from(e)),
                        }
                    }
                    None => self
                        .engine
                        .reschedule(workload, &self.opts.scheduler)
                        .map_err(ServeError::from),
                }
            }
        };
        self.detector.reset();
        match result {
            Ok(schedule) => {
                self.workload_refit = true;
                self.last_plan = Some(schedule.clone());
                self.metrics.inc("reschedules");
                self.events.push(Event::Reschedule {
                    t: self.t,
                    from: self.exec.schedule().describe(),
                    to: schedule.config.describe(),
                    refit_mean: self.engine.simulator().workload().output().mean(),
                });
                // Install even an identical config: the executor must be
                // rebound to the refitted workload so drift is measured
                // against what the scheduler last optimized for.
                Some(schedule.config)
            }
            Err(e) => {
                self.metrics.inc("reschedule_failures");
                self.events.push(Event::RescheduleFailed { t: self.t, why: e.to_string() });
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
    /// Failover searches under the configured scheduler options first —
    /// incrementally from the served plan when
    /// [`ServeOptions::incremental_replan`] is on — and falls back to an
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
            let incumbent = self.opts.incremental_replan.then(|| self.last_plan.clone()).flatten();
            let primary = match incumbent {
                Some(inc) => {
                    let old = self.engine.simulator().cluster().total_gpus() as isize;
                    let delta =
                        ReplanDelta { gpu_delta: gpus as isize - old, workload_changed: false };
                    engine
                        .replan_from(&inc, delta, &self.opts.scheduler)
                        .map(|replan| track_replan(replan, &mut self.metrics))
                }
                None => engine.schedule_with(&self.opts.scheduler),
            };
            primary.map(|s| s.config).or_else(|_| {
                engine.schedule_with(&SchedulerOptions::bounded(Secs::INFINITY)).map(|s| s.config)
            })
        };
        match chosen {
            Ok(cfg) => {
                self.last_plan = engine.simulator().evaluate(&cfg).ok().map(|estimate| Schedule {
                    config: cfg,
                    estimate,
                    evals: 0,
                    cache_hits: 0,
                });
                self.metrics.inc("replans");
                self.events.push(Event::Replan {
                    t: self.t,
                    reason: reason.into(),
                    gpus,
                    to: cfg.describe(),
                    restored,
                });
                Ok(Some(PendingSwap { cfg, engine: Some(engine) }))
            }
            Err(e) => {
                self.metrics.inc("replan_failures");
                self.events.push(Event::ReplanFailed { t: self.t, why: e.to_string() });
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

impl ReplicaStep for ReplicaSession {
    fn now(&self) -> f64 {
        ReplicaSession::now(self)
    }

    fn wake_to(&mut self, t: f64) {
        ReplicaSession::wake_to(self, t)
    }

    fn step(&mut self) -> Result<StepOutcome, ServeError> {
        ReplicaSession::step(self)
    }

    fn inject(&mut self, req: TimedRequest) {
        ReplicaSession::inject(self, req)
    }

    fn outstanding(&self) -> usize {
        ReplicaSession::outstanding(self)
    }

    fn kv_headroom_bytes(&self) -> u64 {
        ReplicaSession::kv_headroom_bytes(self)
    }

    fn plan_latency(&self) -> f64 {
        ReplicaSession::plan_latency(self)
    }

    fn take_completions(&mut self) -> Vec<Completion> {
        ReplicaSession::take_completions(self)
    }

    fn extract_queued(&mut self) -> Vec<TimedRequest> {
        ReplicaSession::extract_queued(self)
    }

    fn finish(self) -> ServeReport {
        ReplicaSession::finish(self)
    }
}

/// Records whether an incremental replan held or fell back. Counters only:
/// the event log must stay byte-identical to the full-search path, and the
/// chosen plan already is.
fn track_replan(replan: Replan, metrics: &mut Metrics) -> Schedule {
    metrics.inc(if replan.fell_back { "replan_fallbacks" } else { "incremental_replans" });
    replan.schedule
}

/// Aborts every in-flight query after a device failure: its KV entry is
/// released and it re-enters admission after an exponential backoff, or is
/// dropped once its retry budget is exhausted.
#[allow(clippy::too_many_arguments)]
fn abort_pool(
    pool: &mut Vec<InFlight>,
    kv: &mut KvTracker,
    retry: &mut BinaryHeap<Retry>,
    attempts: &mut BTreeMap<u64, usize>,
    fo: &FaultOptions,
    t: f64,
    metrics: &mut Metrics,
    events: &mut EventLog,
) {
    for a in pool.drain(..) {
        kv.release(a.req.id);
        let n = attempts.entry(a.req.id).or_insert(0);
        *n += 1;
        let attempt = *n;
        if attempt > fo.max_retries {
            metrics.inc("requests_lost");
            events.push(Event::RequestLost { t, id: a.req.id, attempts: attempt });
        } else {
            metrics.inc("retries");
            let eligible_at = t + fo.backoff_base * 2.0f64.powi(attempt as i32 - 1);
            events.push(Event::RequestRetry { t, id: a.req.id, attempt, eligible_at });
            // Original arrival is kept: TTFT/E2E latency of a retried
            // request honestly includes the failure it survived.
            retry.push(Retry {
                eligible_at,
                req: TimedRequest { request: a.req, arrival: a.arrival },
            });
        }
    }
}

/// Mean context length (input + generated so far) over the pool.
fn mean_context(pool: &[InFlight]) -> f64 {
    pool.iter().map(|a| (a.req.input_len + a.progress) as f64).sum::<f64>() / pool.len() as f64
}

/// Advances every pooled query by one token at time `t`, recording first
/// tokens and harvesting completions (with KV compaction). `grow_ids`
/// selects per-query KV growth through each admission handle (WAA rounds,
/// where the encoder group's fresh admissions are resident but not
/// pooled); RRA decode passes `false` after a bulk
/// [`KvTracker::grow_all`].
fn advance(
    pool: &mut Vec<InFlight>,
    kv: &mut KvTracker,
    t: f64,
    done: &mut Vec<Done>,
    grow_ids: bool,
) {
    let mut i = 0;
    while i < pool.len() {
        pool[i].progress += 1;
        if grow_ids {
            kv.grow_slot_or_clamp(pool[i].slot, 1);
        }
        if pool[i].t_first.is_none() {
            pool[i].t_first = Some(t);
        }
        if pool[i].progress >= pool[i].req.output_len {
            let a = pool.swap_remove(i);
            kv.release(a.req.id);
            let t_first = a.t_first.unwrap_or(t);
            let per_token = if a.req.output_len > 1 {
                Some((t - t_first) / (a.req.output_len - 1) as f64)
            } else {
                None
            };
            done.push(Done {
                id: a.req.id,
                out_len: a.req.output_len,
                ttft: t_first - a.arrival,
                e2e: t - a.arrival,
                per_token,
                queue_wait: a.t_encoded - a.arrival,
                t,
            });
        } else {
            i += 1;
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
