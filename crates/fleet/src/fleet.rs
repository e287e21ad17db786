//! The fleet fabric: N replica serving loops on one virtual clock.
//!
//! A [`Fleet`] owns a set of [`ReplicaSpec`]s — heterogeneous engines,
//! each with its own pool, profile and plan — and plays a multi-tenant
//! trace through them as one discrete-event simulation. A global event
//! heap keyed `(time, kind, replica, seq)` merges three event sources:
//!
//! * **controls** (fleet-level faults, scripted autoscaling, deploy
//!   completions) — applied first at any instant,
//! * **arrivals** from the (sorted) trace — routed by the
//!   [`Router`](crate::Router) and injected into the chosen replica,
//! * **wakes** — a replica is stepped (one phase boundary) whenever its
//!   own clock has work to do.
//!
//! Every replica runs the *unchanged* single-replica loop body
//! ([`exegpt_serve::ReplicaSession::step`]); the fabric only decides when
//! each replica's clock advances and which arrivals it sees. Ties resolve
//! by the fixed kind order then replica id then sequence number, so a run
//! is byte-deterministic: rerunning the same trace yields identical
//! replica event logs and an identical fleet log.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use exegpt_faults::{FaultKind, FaultSchedule};
use exegpt_serve::{Completion, HistogramId, Metrics, MetricsSnapshot, StepOutcome};
use exegpt_units::Secs;
use exegpt_workload::{TenantRequest, TimedRequest};
use serde::Serialize;

use crate::autoscale::{ScaleAction, ScaleEvent};
use crate::error::FleetError;
use crate::events::{FleetEvent, FleetEventLog};
use crate::policy::{Candidate, DispatchPolicy, Router};
use crate::replica::{ReplicaHandle, ReplicaReport, ReplicaSpec, ReplicaState};
use crate::slo::{SloClass, TenantReport};

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// The global dispatch policy.
    pub policy: DispatchPolicy,
    /// SLO classes indexed by [`TenantRequest::class`].
    pub classes: Vec<SloClass>,
    /// Fleet-level fault schedule. `GpuFail { gpu: r }` loses **replica**
    /// `r` (its queued and in-flight work reroutes onto survivors);
    /// `GpuRecover { gpu: r }` redeploys it. Device-level faults belong in
    /// a replica's own [`exegpt_serve::ServeOptions::faults`].
    pub faults: Option<FaultSchedule>,
    /// Scripted autoscaling actions on the fleet clock.
    pub scale: Vec<ScaleEvent>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            policy: DispatchPolicy::RoundRobin,
            classes: vec![SloClass::batch("default")],
            faults: None,
            scale: Vec::new(),
        }
    }
}

/// Everything a finished fleet run reports.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Requests dispatched on first arrival.
    pub dispatched: usize,
    /// Requests rejected at arrival (no routable replica).
    pub rejected: usize,
    /// Re-dispatches after replica losses.
    pub rerouted: usize,
    /// Requests completed fleet-wide.
    pub completed: usize,
    /// Requests lost (dispatched but neither completed nor reroutable).
    pub lost: usize,
    /// Virtual time of the last completion.
    pub makespan: f64,
    /// Class-weighted SLO violation rate over all tenants.
    pub weighted_violation_rate: f64,
    /// Per-tenant accounting, ascending tenant id.
    pub tenants: Vec<TenantReport>,
    /// Per-replica accounting, fleet order.
    pub replicas: Vec<ReplicaReport>,
    /// Fleet-level metrics (rollups plus per-replica counters).
    pub metrics: MetricsSnapshot,
    /// The fleet fabric's event log (routing and lifecycle decisions).
    pub events: FleetEventLog,
}

/// A multi-replica serving fleet. See the [crate docs](crate).
pub struct Fleet {
    specs: Vec<ReplicaSpec>,
    opts: FleetOptions,
}

impl Fleet {
    /// Creates a fleet over `specs`.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] when no replica starts
    /// active, a class is malformed, a scale action targets an unknown
    /// replica, or the fault schedule contains anything but whole-replica
    /// loss/recovery of known replicas.
    pub fn new(specs: Vec<ReplicaSpec>, opts: FleetOptions) -> Result<Self, FleetError> {
        if specs.is_empty() {
            return Err(FleetError::InvalidConfig {
                what: "replicas",
                why: "at least one replica is required".into(),
            });
        }
        if specs.iter().all(|s| s.standby) {
            return Err(FleetError::InvalidConfig {
                what: "replicas",
                why: "at least one replica must start active (not standby)".into(),
            });
        }
        if opts.classes.is_empty() {
            return Err(FleetError::InvalidConfig {
                what: "classes",
                why: "at least one SLO class is required".into(),
            });
        }
        if let Some(bad) = opts.classes.iter().find(|c| !c.is_valid()) {
            return Err(FleetError::InvalidConfig {
                what: "classes",
                why: format!("class `{}` has an empty name or invalid weight", bad.name),
            });
        }
        if let Some(f) = &opts.faults {
            for e in f.events() {
                let ok = match e.kind {
                    FaultKind::GpuFail { gpu } | FaultKind::GpuRecover { gpu } => gpu < specs.len(),
                    _ => false,
                };
                if !ok {
                    return Err(FleetError::InvalidConfig {
                        what: "faults",
                        why: format!(
                            "fleet faults must be GpuFail/GpuRecover of a replica index \
                             < {} (got {})",
                            specs.len(),
                            e.kind
                        ),
                    });
                }
            }
        }
        for ev in &opts.scale {
            if ev.action.replica() >= specs.len() {
                return Err(FleetError::InvalidConfig {
                    what: "scale",
                    why: format!(
                        "scale action targets replica {} but the fleet has {}",
                        ev.action.replica(),
                        specs.len()
                    ),
                });
            }
            if !ev.t.is_finite() || ev.t < 0.0 {
                return Err(FleetError::InvalidConfig {
                    what: "scale",
                    why: format!("scale time must be finite and non-negative, got {}", ev.t),
                });
            }
        }
        Ok(Self { specs, opts })
    }

    /// Plays `trace` (sorted by arrival) through the fleet to completion.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] when the trace is unsorted,
    /// repeats a request id or references an unknown SLO class, and
    /// [`FleetError::Serve`] when a replica's loop fails.
    pub fn run(self, trace: Vec<TenantRequest>) -> Result<FleetReport, FleetError> {
        let n_classes = self.opts.classes.len();
        for pair in trace.windows(2) {
            if pair[0].request.arrival > pair[1].request.arrival {
                return Err(FleetError::InvalidConfig {
                    what: "trace",
                    why: "arrivals must be sorted by time".into(),
                });
            }
        }
        if let Some(bad) = trace.iter().find(|r| r.class as usize >= n_classes) {
            return Err(FleetError::InvalidConfig {
                what: "trace",
                why: format!(
                    "tenant {} uses class {} but only {} classes are configured",
                    bad.tenant, bad.class, n_classes
                ),
            });
        }

        let tenants = Tenants::new(&trace)?;
        let n = self.specs.len();
        let mut metrics = Metrics::new();
        let ids = FleetMetrics::resolve(&mut metrics, n);
        let mut state = RunState {
            handles: self.specs.into_iter().map(ReplicaHandle::new).collect(),
            router: Router::new(self.opts.policy),
            classes: self.opts.classes,
            heap: BinaryHeap::new(),
            controls: BTreeMap::new(),
            seq: 0,
            wake_seq: vec![0; n],
            scheduled: vec![None; n],
            cands: Vec::with_capacity(n),
            tenants,
            metrics,
            ids,
            events: FleetEventLog::new(),
            makespan: 0.0,
            dispatched: 0,
            rejected: 0,
            rerouted: 0,
            completed: 0,
            lost: 0,
        };

        // Spawn the initially active replicas and give each a first wake.
        for i in 0..state.handles.len() {
            if matches!(state.handles[i].state, ReplicaState::Active) {
                state.handles[i].session = Some(state.handles[i].spec.spawn()?);
                state.schedule_wake(i, 0.0);
            }
        }
        // Merge fleet faults and scripted scaling into the control track.
        if let Some(f) = &self.opts.faults {
            for e in f.events() {
                match e.kind {
                    FaultKind::GpuFail { gpu } => state.push_control(e.t, Control::Lose(gpu)),
                    FaultKind::GpuRecover { gpu } => {
                        state.push_control(e.t, Control::Deploy(gpu));
                    }
                    _ => {}
                }
            }
        }
        for ev in &self.opts.scale {
            match ev.action {
                ScaleAction::Up { replica } => {
                    state.push_control(ev.t, Control::ScaleUp(replica));
                }
                ScaleAction::Down { replica } => {
                    state.push_control(ev.t, Control::ScaleDown(replica));
                }
            }
        }

        // ---- The global event loop --------------------------------------
        let mut arrivals = trace.into_iter().peekable();
        loop {
            let take_arrival = match (arrivals.peek(), state.heap.peek()) {
                (Some(a), Some(top)) => match a.request.arrival.total_cmp(&top.t) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    // Same instant: controls apply first, then arrivals,
                    // then wakes (K_* order).
                    Ordering::Equal => top.kind > K_ARRIVAL,
                },
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_arrival {
                if let Some(r) = arrivals.next() {
                    state.dispatch(r);
                }
                continue;
            }
            let Some(entry) = state.heap.pop() else { break };
            match entry.kind {
                K_CONTROL => {
                    if let Some(control) = state.controls.remove(&entry.seq) {
                        state.apply_control(control, entry.t)?;
                    }
                }
                // A wake with a stale seq was superseded — skip it.
                _ if entry.seq == state.wake_seq[entry.replica] => {
                    state.scheduled[entry.replica] = None;
                    state.step_replica(entry.replica, entry.t)?;
                }
                _ => {}
            }
        }

        // Everything is quiescent: retire the surviving sessions.
        for i in 0..state.handles.len() {
            if let Some(sess) = state.handles[i].session.take() {
                let report = sess.finish();
                state.handles[i].reports.push(report);
            }
        }
        Ok(state.into_report())
    }
}

/// The tenant table of one run: every tenant of the trace and the tenant
/// of every request, built once from the trace and binary-searched.
struct Tenants {
    /// Accounting per tenant, ascending tenant id.
    accs: Vec<TenantAcc>,
    /// (request id, index into `accs`) of every trace request, ascending
    /// id.
    by_id: Vec<(u64, usize)>,
}

impl Tenants {
    /// The table of `trace`. Each tenant takes the class of its first
    /// request.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] when two requests share an id.
    fn new(trace: &[TenantRequest]) -> Result<Self, FleetError> {
        let mut ids: Vec<u32> = trace.iter().map(|r| r.tenant).collect();
        ids.sort_unstable();
        ids.dedup();
        let accs = ids.into_iter().map(|tenant| TenantAcc { tenant, ..TenantAcc::default() });
        let mut table = Self { accs: accs.collect(), by_id: Vec::with_capacity(trace.len()) };
        // Backwards, so each tenant's class is last set by its first request.
        for r in trace.iter().rev() {
            let i = table.index(r.tenant).unwrap_or_default();
            if let Some(acc) = table.accs.get_mut(i) {
                acc.class = r.class;
            }
            table.by_id.push((r.request.request.id, i));
        }
        table.by_id.sort_unstable_by_key(|&(id, _)| id);
        if let Some(pair) = table.by_id.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(FleetError::InvalidConfig {
                what: "trace",
                why: format!("request id {} appears more than once", pair[0].0),
            });
        }
        Ok(table)
    }

    /// The index in `accs` of tenant `tenant`.
    fn index(&self, tenant: u32) -> Option<usize> {
        self.accs.binary_search_by_key(&tenant, |acc| acc.tenant).ok()
    }

    /// The index in `accs` of the tenant that sent request `id`.
    fn origin(&self, id: u64) -> Option<usize> {
        let at = self.by_id.binary_search_by_key(&id, |&(id, _)| id).ok()?;
        self.by_id.get(at).map(|&(_, tenant)| tenant)
    }
}

/// Handles of the metrics the fleet updates per request, resolved once
/// when the run starts.
struct FleetMetrics {
    e2e: HistogramId,
    queue_wait: HistogramId,
    dispatch_headroom_bytes: HistogramId,
    dispatch_outstanding: HistogramId,
    /// Each replica's `replica{r}_e2e`.
    replica_e2e: Vec<HistogramId>,
}

impl FleetMetrics {
    fn resolve(m: &mut Metrics, replicas: usize) -> Self {
        Self {
            e2e: m.histogram_id("e2e"),
            queue_wait: m.histogram_id("queue_wait"),
            dispatch_headroom_bytes: m.histogram_id("dispatch_headroom_bytes"),
            dispatch_outstanding: m.histogram_id("dispatch_outstanding"),
            replica_e2e: (0..replicas)
                .map(|r| m.histogram_id(&format!("replica{r}_e2e")))
                .collect(),
        }
    }
}

/// Heap-entry kinds, in tie-break order at one instant.
const K_CONTROL: u8 = 0;
const K_ARRIVAL: u8 = 1; // arrivals live in the trace iterator, not the heap
const K_WAKE: u8 = 2;

/// One scheduled fleet event. Min-ordered on `(t, kind, replica, seq)` —
/// [`BinaryHeap`] pops the maximum, so the comparison is reversed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    t: f64,
    kind: u8,
    replica: usize,
    seq: u64,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.kind.cmp(&self.kind))
            .then_with(|| other.replica.cmp(&self.replica))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A fleet-level control action.
#[derive(Debug, Clone, Copy)]
enum Control {
    /// Lose a replica (fleet fault): reroute its work onto survivors.
    Lose(usize),
    /// Redeploy a lost replica (fleet fault recovery).
    Deploy(usize),
    /// Scripted scale-up of a standby/retired replica.
    ScaleUp(usize),
    /// Scripted drain-and-retire of an active replica.
    ScaleDown(usize),
    /// A deploying replica finished paying its deploy cost.
    Ready(usize),
}

/// Per-tenant running accounting.
#[derive(Default)]
struct TenantAcc {
    tenant: u32,
    /// The class of the tenant's first request.
    class: u32,
    dispatched: usize,
    rejected: usize,
    rerouted: usize,
    completed: usize,
    slo: exegpt_serve::SloOutcome,
}

/// All mutable state of one fleet run.
struct RunState {
    handles: Vec<ReplicaHandle>,
    router: Router,
    classes: Vec<SloClass>,
    heap: BinaryHeap<Entry>,
    controls: BTreeMap<u64, Control>,
    seq: u64,
    /// Latest valid wake seq per replica: heap entries with an older seq
    /// were superseded and are discarded on pop (lazy deletion).
    wake_seq: Vec<u64>,
    /// Time of each replica's currently scheduled wake, if any. At most
    /// one wake per replica is live, and it is never earlier than the
    /// replica's own clock — so a replica only steps once the global loop
    /// has delivered every arrival at or before its local time, which is
    /// exactly what the single-replica loop sees.
    scheduled: Vec<Option<f64>>,
    /// Routing candidates, refilled by [`RunState::fill_candidates`] at
    /// every dispatch and reroute.
    cands: Vec<Candidate>,
    /// Per-tenant accounting, and the tenant of every request for
    /// completion and reroute accounting.
    tenants: Tenants,
    metrics: Metrics,
    /// Handles of the metrics updated per request.
    ids: FleetMetrics,
    events: FleetEventLog,
    makespan: f64,
    dispatched: usize,
    rejected: usize,
    rerouted: usize,
    completed: usize,
    lost: usize,
}

impl RunState {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Schedules replica `replica`'s next wake at `t`, unless an
    /// earlier-or-equal wake is already live. A later live wake (an idle
    /// timer) is superseded via the seq counter.
    fn schedule_wake(&mut self, replica: usize, t: f64) {
        if let Some(cur) = self.scheduled[replica] {
            if cur.total_cmp(&t) != Ordering::Greater {
                return;
            }
        }
        let seq = self.next_seq();
        self.wake_seq[replica] = seq;
        self.scheduled[replica] = Some(t);
        self.heap.push(Entry { t, kind: K_WAKE, replica, seq });
    }

    /// Drops replica `replica`'s live wake, if any (loss or retirement).
    fn cancel_wake(&mut self, replica: usize) {
        self.wake_seq[replica] = self.next_seq();
        self.scheduled[replica] = None;
    }

    fn push_control(&mut self, t: f64, control: Control) {
        let seq = self.next_seq();
        let replica = match control {
            Control::Lose(r)
            | Control::Deploy(r)
            | Control::ScaleUp(r)
            | Control::ScaleDown(r)
            | Control::Ready(r) => r,
        };
        self.controls.insert(seq, control);
        self.heap.push(Entry { t, kind: K_CONTROL, replica, seq });
    }

    /// Fills `cands` with the routable replicas' dispatch signals,
    /// ascending replica id.
    fn fill_candidates(&mut self) {
        self.cands.clear();
        for (i, h) in self.handles.iter().enumerate() {
            let Some(s) = h.session.as_ref().filter(|_| h.state.routable()) else { continue };
            self.cands.push(Candidate {
                replica: i,
                outstanding: s.outstanding(),
                headroom_bytes: s.kv_headroom_bytes(),
                plan_latency: s.plan_latency(),
            });
        }
    }

    /// Routes one fresh arrival.
    fn dispatch(&mut self, r: TenantRequest) {
        let t = r.request.arrival;
        self.fill_candidates();
        let class = &self.classes[r.class as usize];
        let acc = self.tenants.index(r.tenant);
        match self.router.choose(class, &self.cands) {
            Some(replica) => {
                let Some(c) = self.cands.iter().find(|c| c.replica == replica) else { return };
                let (outstanding, headroom_bytes) = (c.outstanding, c.headroom_bytes);
                self.dispatched += 1;
                if let Some(acc) = acc.and_then(|i| self.tenants.accs.get_mut(i)) {
                    acc.dispatched += 1;
                }
                self.handles[replica].dispatched += 1;
                self.metrics.observe_at(self.ids.dispatch_headroom_bytes, headroom_bytes as f64);
                self.metrics.observe_at(self.ids.dispatch_outstanding, outstanding as f64);
                self.events.push(FleetEvent::Dispatch {
                    t,
                    id: r.request.request.id,
                    tenant: r.tenant,
                    replica,
                    outstanding,
                    headroom_bytes,
                });
                // Wake the replica no earlier than its own clock: arrivals
                // in between are delivered by the global loop first, so
                // the step sees the same inbox the single-replica loop
                // would at that local time.
                let mut wake_at = t;
                if let Some(sess) = self.handles[replica].session.as_mut() {
                    sess.inject(r.request);
                    wake_at = sess.now().max(t);
                }
                self.schedule_wake(replica, wake_at);
            }
            None => {
                self.rejected += 1;
                if let Some(acc) = acc.and_then(|i| self.tenants.accs.get_mut(i)) {
                    acc.rejected += 1;
                }
                self.events.push(FleetEvent::Reject {
                    t,
                    id: r.request.request.id,
                    tenant: r.tenant,
                });
            }
        }
    }

    /// Wakes replica `rep` to fleet time `t` and steps it once.
    fn step_replica(&mut self, rep: usize, t: f64) -> Result<(), FleetError> {
        let (outcome, completions, now) = {
            let h = &mut self.handles[rep];
            let Some(sess) = h.session.as_mut() else { return Ok(()) };
            sess.wake_to(t);
            let outcome = sess.step()?;
            let completions = sess.take_completions();
            h.completed += completions.len();
            (outcome, completions, sess.now())
        };
        self.account(rep, &completions);
        match outcome {
            StepOutcome::Progressed => self.schedule_wake(rep, now),
            StepOutcome::Parked { until: Some(w) } => self.schedule_wake(rep, w.max(now)),
            StepOutcome::Parked { until: None } | StepOutcome::Done => {
                if matches!(self.handles[rep].state, ReplicaState::Draining) {
                    self.retire(rep, now.max(t));
                }
            }
        }
        Ok(())
    }

    /// Folds a batch of completions into tenant and fleet accounting.
    fn account(&mut self, rep: usize, completions: &[Completion]) {
        let ids = &self.ids;
        for c in completions {
            self.completed += 1;
            self.makespan = self.makespan.max(c.t);
            self.metrics.observe_at(ids.e2e, c.e2e);
            self.metrics.observe_at(ids.queue_wait, c.queue_wait);
            if let Some(&replica_e2e) = ids.replica_e2e.get(rep) {
                self.metrics.observe_at(replica_e2e, c.e2e);
            }
            let Some(tenant) = self.tenants.origin(c.id) else { continue };
            let Some(acc) = self.tenants.accs.get_mut(tenant) else { continue };
            acc.completed += 1;
            let targets = &self.classes[acc.class as usize].targets;
            let check =
                targets.check(Secs::new(c.ttft), c.per_token.map(Secs::new), Secs::new(c.e2e));
            acc.slo.record(check);
        }
    }

    /// Finishes a drained replica's session and retires it.
    fn retire(&mut self, rep: usize, t: f64) {
        self.cancel_wake(rep);
        if let Some(sess) = self.handles[rep].session.take() {
            let report = sess.finish();
            self.handles[rep].reports.push(report);
        }
        self.handles[rep].state = ReplicaState::Down;
        self.metrics.inc("scale_downs");
        self.events.push(FleetEvent::ReplicaDown { t, replica: rep });
    }

    fn apply_control(&mut self, control: Control, t: f64) -> Result<(), FleetError> {
        match control {
            Control::Lose(rep) => self.lose_replica(rep, t),
            Control::Deploy(rep) | Control::ScaleUp(rep) => {
                let deployable = matches!(
                    self.handles[rep].state,
                    ReplicaState::Standby | ReplicaState::Lost { .. } | ReplicaState::Down
                );
                if deployable {
                    self.handles[rep].session = Some(self.handles[rep].spec.spawn()?);
                    let ready_at = t + self.handles[rep].spec.deploy_cost();
                    self.handles[rep].state = ReplicaState::Deploying { ready_at };
                    self.metrics.inc("deploys");
                    if matches!(control, Control::ScaleUp(_)) {
                        self.metrics.inc("scale_ups");
                    }
                    self.events.push(FleetEvent::ReplicaDeploying { t, replica: rep, ready_at });
                    self.push_control(ready_at, Control::Ready(rep));
                }
                Ok(())
            }
            Control::Ready(rep) => {
                if matches!(self.handles[rep].state, ReplicaState::Deploying { .. }) {
                    self.handles[rep].state = ReplicaState::Active;
                    if let Some(sess) = self.handles[rep].session.as_mut() {
                        // The replica's life starts now: no fictitious
                        // idle-from-zero in its log.
                        sess.skip_to(t);
                    }
                    self.events.push(FleetEvent::ReplicaReady { t, replica: rep });
                    self.schedule_wake(rep, t);
                }
                Ok(())
            }
            Control::ScaleDown(rep) => {
                if matches!(self.handles[rep].state, ReplicaState::Active) {
                    self.handles[rep].state = ReplicaState::Draining;
                    self.events.push(FleetEvent::ReplicaDraining { t, replica: rep });
                    // One wake so an already quiescent replica retires
                    // immediately instead of lingering.
                    let wake_at = self.handles[rep].session.as_ref().map_or(t, |s| s.now().max(t));
                    self.schedule_wake(rep, wake_at);
                }
                Ok(())
            }
        }
    }

    /// Loses a replica: its session is harvested (completions kept, report
    /// archived) and every queued or in-flight request reroutes onto the
    /// survivors with its original arrival stamp.
    fn lose_replica(&mut self, rep: usize, t: f64) -> Result<(), FleetError> {
        self.cancel_wake(rep);
        let Some(mut sess) = self.handles[rep].session.take() else { return Ok(()) };
        let completions = sess.take_completions();
        self.handles[rep].completed += completions.len();
        self.account(rep, &completions);
        let stranded = sess.extract_queued();
        let report = sess.finish();
        self.handles[rep].reports.push(report);
        self.handles[rep].state = ReplicaState::Lost { at: t };
        self.metrics.inc("replicas_lost");
        let mut rerouted = 0usize;
        for req in &stranded {
            if self.reroute(*req, rep, t) {
                rerouted += 1;
            }
        }
        self.events.push(FleetEvent::ReplicaLost { t, replica: rep, rerouted });
        Ok(())
    }

    /// Re-dispatches one stranded request at the loss instant. Returns
    /// whether a survivor took it (otherwise it counts as lost).
    fn reroute(&mut self, req: TimedRequest, from: usize, t: f64) -> bool {
        let id = req.request.id;
        let tenant = self.tenants.origin(id);
        let class_idx = tenant.and_then(|tn| self.tenants.accs.get(tn)).map_or(0, |acc| acc.class);
        self.fill_candidates();
        let class = &self.classes[class_idx as usize];
        match self.router.choose(class, &self.cands) {
            Some(to) => {
                self.rerouted += 1;
                self.handles[to].dispatched += 1;
                if let Some(acc) = tenant.and_then(|tn| self.tenants.accs.get_mut(tn)) {
                    acc.rerouted += 1;
                }
                self.events.push(FleetEvent::Reroute { t, id, from, to });
                let mut wake_at = t;
                if let Some(sess) = self.handles[to].session.as_mut() {
                    sess.inject(req);
                    wake_at = sess.now().max(t);
                }
                self.schedule_wake(to, wake_at);
                true
            }
            None => {
                self.lost += 1;
                false
            }
        }
    }

    /// Rolls the run state up into the final report.
    fn into_report(mut self) -> FleetReport {
        let mut weighted_violations = 0.0f64;
        let mut weighted_checked = 0.0f64;
        let mut tenants = Vec::with_capacity(self.tenants.accs.len());
        for acc in &self.tenants.accs {
            let class = &self.classes[acc.class as usize];
            weighted_violations += class.weight * acc.slo.violations as f64;
            weighted_checked += class.weight * acc.slo.checked as f64;
            let id = acc.tenant;
            self.metrics.gauge(&format!("tenant{id}_violation_rate"), acc.slo.violation_rate());
            tenants.push(TenantReport {
                tenant: id,
                class: class.name.clone(),
                dispatched: acc.dispatched,
                rejected: acc.rejected,
                rerouted: acc.rerouted,
                completed: acc.completed,
                slo: acc.slo,
            });
        }
        let weighted_violation_rate =
            if weighted_checked > 0.0 { weighted_violations / weighted_checked } else { 0.0 };
        self.metrics.gauge("weighted_violation_rate", weighted_violation_rate);
        self.metrics.gauge("makespan", self.makespan);
        // Counters with a typed home are counted once, on the run state,
        // and written here. A registry counter exists only from its first
        // increment on, so a zero stays out of the snapshot.
        let metrics = &mut self.metrics;
        let mut count = |name: &str, n: usize| {
            if n > 0 {
                metrics.add(name, n as u64);
            }
        };
        let policy = self.router.policy().name();
        count("dispatched", self.dispatched);
        count(&format!("dispatched_{policy}"), self.dispatched);
        count("rejected", self.rejected);
        count(&format!("rejected_{policy}"), self.rejected);
        count("rerouted", self.rerouted);
        count("requests_lost", self.lost);
        count("completed", self.completed);
        for (r, h) in self.handles.iter().enumerate() {
            count(&format!("replica{r}_dispatched"), h.dispatched);
            count(&format!("replica{r}_completed"), h.completed);
        }
        let replicas = self
            .handles
            .into_iter()
            .map(|h| ReplicaReport {
                name: h.spec.name.clone(),
                state: h.state,
                dispatched: h.dispatched,
                completed: h.completed,
                reports: h.reports,
            })
            .collect();
        FleetReport {
            dispatched: self.dispatched,
            rejected: self.rejected,
            rerouted: self.rerouted,
            completed: self.completed,
            lost: self.lost,
            makespan: self.makespan,
            weighted_violation_rate,
            tenants,
            replicas,
            metrics: self.metrics.into_snapshot(),
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_entries_order_by_time_kind_replica_seq() {
        let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
        heap.push(Entry { t: 2.0, kind: K_WAKE, replica: 0, seq: 4 });
        heap.push(Entry { t: 1.0, kind: K_WAKE, replica: 1, seq: 3 });
        heap.push(Entry { t: 1.0, kind: K_CONTROL, replica: 9, seq: 5 });
        heap.push(Entry { t: 1.0, kind: K_WAKE, replica: 0, seq: 6 });
        heap.push(Entry { t: 1.0, kind: K_ARRIVAL, replica: 0, seq: 7 });
        let order: Vec<(f64, u8, usize)> =
            std::iter::from_fn(|| heap.pop()).map(|e| (e.t, e.kind, e.replica)).collect();
        assert_eq!(
            order,
            vec![
                (1.0, K_CONTROL, 9),
                (1.0, K_ARRIVAL, 0),
                (1.0, K_WAKE, 0),
                (1.0, K_WAKE, 1),
                (2.0, K_WAKE, 0),
            ]
        );
    }
}
