//! Online fault handling: the fault vocabulary, its replay, and the
//! detection, dilation and degradation policy built on it.
//!
//! A [`FaultSchedule`] is a validated list of timed events —
//! [`FaultKind::GpuFail`], [`FaultKind::GpuSlowdown`],
//! [`FaultKind::LinkDegrade`], [`FaultKind::GpuRecover`] — replayed against
//! the loop's *virtual* clock (never the wall clock), so a failure scenario
//! is exactly reproducible: two runs with the same schedule produce
//! byte-identical traces.
//!
//! The [`FaultLayer`] replays the schedule and answers the three questions
//! the loop asks at every phase boundary:
//!
//! 1. **What just broke?** Fired events are logged; a `GpuFail` matures
//!    into a *detection* only after [`FaultOptions::detection_delay`] of
//!    virtual time — the heartbeat-timeout model — at which point the
//!    in-flight pool is aborted into the retry queue and the loop replans
//!    onto the surviving topology.
//! 2. **How slow are we right now?** [`FaultLayer::factors`] gives the
//!    compute dilation (worst live straggler) and link factors the loop
//!    multiplies into phase timings. Stragglers are *tolerated* below
//!    [`FaultOptions::evict_slowdown`] and evicted (removed from the
//!    topology, plan recomputed) at or above it, once the
//!    [`StragglerDetector`] has confirmed the slowdown from observed phase
//!    timings.
//! 3. **When should an idle loop wake up?** [`FaultLayer::next_wake`]
//!    folds pending fault activations and maturing detections into the
//!    idle-jump target.
//!
//! With an empty schedule every answer is the identity (dilation exactly
//! `1.0`, no wakes, no detections), so enabling the fault layer on a
//! healthy run is a byte-exact no-op — the differential test pins this.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use exegpt_runner::{FaultFactors, PhaseRecord, ReplicaState};
use exegpt_workload::TimedRequest;

use crate::error::ServeError;
use crate::events::{Event, EventLog};
use crate::metrics::Metrics;

/// What happens to the cluster at a fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The device dies: it rejects all work until it recovers.
    GpuFail {
        /// The failing device (dense index within the serving cluster).
        gpu: usize,
    },
    /// The device straggles: every kernel on it runs `factor`× slower
    /// (thermal throttling, a noisy neighbour, ECC retirement storms).
    GpuSlowdown {
        /// The straggling device.
        gpu: usize,
        /// Slowdown factor (≥ 1).
        factor: f64,
    },
    /// Cluster-wide link degradation: bandwidth scales by `bw_factor`,
    /// `latency_add` seconds join every transfer. A later `LinkDegrade`
    /// replaces the current one; `bw_factor = 1, latency_add = 0` restores
    /// healthy links.
    LinkDegrade {
        /// Bandwidth multiplier in `(0, 1]`.
        bw_factor: f64,
        /// Added latency in (virtual) seconds, ≥ 0.
        latency_add: f64,
    },
    /// The device returns to service, clearing a failure or slowdown.
    GpuRecover {
        /// The recovering device.
        gpu: usize,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::GpuFail { gpu } => write!(f, "gpu{gpu} failed"),
            FaultKind::GpuSlowdown { gpu, factor } => {
                write!(f, "gpu{gpu} slowed x{factor:.2}")
            }
            FaultKind::LinkDegrade { bw_factor, latency_add } => {
                write!(f, "links degraded bw x{bw_factor:.2} +{latency_add:.4}s")
            }
            FaultKind::GpuRecover { gpu } => write!(f, "gpu{gpu} recovered"),
        }
    }
}

impl FaultKind {
    /// The device this event targets (`None` for link events).
    pub fn gpu(&self) -> Option<usize> {
        match self {
            FaultKind::GpuFail { gpu }
            | FaultKind::GpuSlowdown { gpu, .. }
            | FaultKind::GpuRecover { gpu } => Some(*gpu),
            FaultKind::LinkDegrade { .. } => None,
        }
    }

    fn validate(&self) -> Result<(), &'static str> {
        match *self {
            FaultKind::GpuFail { .. } | FaultKind::GpuRecover { .. } => Ok(()),
            FaultKind::GpuSlowdown { factor, .. } => {
                if factor.is_finite() && factor >= 1.0 {
                    Ok(())
                } else {
                    Err("slowdown factor must be finite and >= 1")
                }
            }
            FaultKind::LinkDegrade { bw_factor, latency_add } => {
                if !(bw_factor > 0.0 && bw_factor <= 1.0) {
                    Err("link bw_factor must be in (0, 1]")
                } else if !(latency_add.is_finite() && latency_add >= 0.0) {
                    Err("link latency_add must be finite and >= 0")
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// One timed fault event on the virtual clock.
///
/// `t` is *virtual* seconds — fault times come from the simulated clock the
/// loop replays against, never from the wall clock (see clippy.toml), so a
/// scenario replays byte-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Virtual time at which the fault becomes active.
    pub t: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A validated fault scenario: events sorted by activation time.
///
/// The schedule is plain data: the same schedule replays the same run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Validates and time-sorts `events` into a schedule. Events at the
    /// same time keep their order.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidEvent`] for non-finite/negative times
    /// or out-of-range fault parameters.
    pub fn new(mut events: Vec<FaultEvent>) -> Result<Self, FaultError> {
        for (index, e) in events.iter().enumerate() {
            if !(e.t.is_finite() && e.t >= 0.0) {
                return Err(FaultError::InvalidEvent {
                    index,
                    why: "activation time must be finite and >= 0",
                });
            }
            e.kind.validate().map_err(|why| FaultError::InvalidEvent { index, why })?;
        }
        events.sort_by(|a, b| a.t.total_cmp(&b.t));
        Ok(Self { events })
    }

    /// The empty schedule (a guaranteed no-op).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The events, sorted by activation time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// Errors raised while building or replaying a fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// An event failed validation.
    InvalidEvent {
        /// Index of the offending event in the schedule.
        index: usize,
        /// Why it was rejected.
        why: &'static str,
    },
    /// An event targets a GPU outside the cluster.
    GpuOutOfRange {
        /// The targeted GPU index.
        gpu: usize,
        /// Devices in the cluster being replayed against.
        total: usize,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::InvalidEvent { index, why } => {
                write!(f, "invalid fault event #{index}: {why}")
            }
            FaultError::GpuOutOfRange { gpu, total } => {
                write!(f, "fault targets gpu{gpu}, but the cluster has {total} devices")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Configuration of the serving loop's fault handling.
#[derive(Debug, Clone)]
pub struct FaultOptions {
    /// The scenario to replay (empty = no-op).
    pub schedule: FaultSchedule,
    /// Virtual seconds between a `GpuFail` becoming active and the loop
    /// *detecting* it (heartbeat timeout). The pool stalls for the
    /// remainder of this window when a failure is noticed mid-phase.
    pub detection_delay: f64,
    /// Slowdown factor at or above which a confirmed straggler is evicted
    /// from the topology (and the plan recomputed on the survivors) rather
    /// than tolerated via time dilation.
    pub evict_slowdown: f64,
    /// Straggler-confirmation tuning.
    pub straggler: StragglerOptions,
    /// Retry budget per request: a request aborted by failures more than
    /// this many times is dropped and counted as lost.
    pub max_retries: usize,
    /// Base of the exponential retry backoff: attempt `k` becomes eligible
    /// `backoff_base * 2^(k-1)` virtual seconds after the abort.
    pub backoff_base: f64,
}

impl Default for FaultOptions {
    fn default() -> Self {
        Self {
            schedule: FaultSchedule::empty(),
            detection_delay: 0.5,
            evict_slowdown: 2.0,
            straggler: StragglerOptions::default(),
            max_retries: 5,
            backoff_base: 0.25,
        }
    }
}

impl FaultOptions {
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if !(self.detection_delay.is_finite() && self.detection_delay >= 0.0) {
            return Err(ServeError::InvalidOption {
                what: "faults.detection_delay",
                why: format!("must be finite and non-negative, got {}", self.detection_delay),
            });
        }
        if !(self.evict_slowdown.is_finite() && self.evict_slowdown > 1.0) {
            return Err(ServeError::InvalidOption {
                what: "faults.evict_slowdown",
                why: format!("must be finite and > 1, got {}", self.evict_slowdown),
            });
        }
        if !(self.backoff_base.is_finite() && self.backoff_base >= 0.0) {
            return Err(ServeError::InvalidOption {
                what: "faults.backoff_base",
                why: format!("must be finite and non-negative, got {}", self.backoff_base),
            });
        }
        if !(self.straggler.rel_threshold.is_finite() && self.straggler.rel_threshold > 1.0) {
            return Err(ServeError::InvalidOption {
                what: "faults.straggler.rel_threshold",
                why: format!("must be finite and > 1, got {}", self.straggler.rel_threshold),
            });
        }
        if self.straggler.consecutive == 0 {
            return Err(ServeError::InvalidOption {
                what: "faults.straggler.consecutive",
                why: "must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Tuning of the serving loop's straggler detector, which confirms a
/// straggler from observed against predicted phase times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerOptions {
    /// Observed/expected phase-time ratio that counts as a straggler hit.
    pub rel_threshold: f64,
    /// Consecutive hits required to confirm a straggler (debouncing).
    pub consecutive: usize,
}

impl Default for StragglerOptions {
    fn default() -> Self {
        Self { rel_threshold: 1.25, consecutive: 3 }
    }
}

/// Confirms stragglers from *observed* phase timings.
///
/// The loop feeds every executed phase's observed duration together with
/// the duration its plan predicted; a sustained ratio above the threshold
/// confirms a straggler. The confirmation latches — once declared it stays
/// silent until the ratio falls back below the threshold — so a tolerated
/// (non-evictable) straggler is reported once, not every phase.
#[derive(Debug, Clone)]
pub(crate) struct StragglerDetector {
    opts: StragglerOptions,
    hits: usize,
    latched: bool,
}

impl StragglerDetector {
    /// Creates a detector.
    pub(crate) fn new(opts: StragglerOptions) -> Self {
        Self { opts, hits: 0, latched: false }
    }

    /// Feeds one executed phase. Returns the observed/expected ratio when
    /// this observation *confirms* a straggler (threshold held for
    /// `consecutive` phases, not already latched).
    pub(crate) fn observe(&mut self, observed: f64, expected: f64) -> Option<f64> {
        #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must be rejected too")]
        if !(expected > 0.0) {
            return None;
        }
        let ratio = observed / expected;
        if ratio >= self.opts.rel_threshold {
            self.hits += 1;
        } else {
            self.hits = 0;
            self.latched = false;
        }
        if self.hits >= self.opts.consecutive && !self.latched {
            self.latched = true;
            return Some(ratio);
        }
        None
    }
}

/// Health of one device, as replayed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Health {
    /// Full speed, accepting work.
    Healthy,
    /// Straggling by the contained factor (≥ 1); still accepting work.
    Slowed(f64),
    /// Dead: rejects all work until a `GpuRecover`.
    Failed,
}

/// The serving loop's fault layer: the replayed scenario and what it has
/// broken so far, the detection and eviction bookkeeping, straggler
/// confirmation, and the requests that failures aborted.
pub(crate) struct FaultLayer {
    opts: FaultOptions,
    /// Index of the first schedule event not yet applied.
    cursor: usize,
    /// Each device's health under the events applied so far.
    gpus: Vec<Health>,
    /// Multiplier on bandwidth-bound transfer time: `1 / bw_factor` of the
    /// last `LinkDegrade`, 1 while the links are healthy.
    link_time: f64,
    /// Latency the last `LinkDegrade` added to every transfer.
    link_latency: f64,
    straggler: StragglerDetector,
    /// Failures that fired but have not yet matured through the heartbeat
    /// timeout: `(gpu, detection time)`, in firing order.
    undetected: Vec<(usize, f64)>,
    /// Devices removed from the topology: detected failures and evicted
    /// stragglers. A device is removed once, however it went.
    removed: BTreeSet<usize>,
    /// Aborted requests waiting out their retry backoff, with the time
    /// they become eligible, in `(eligible_at, id)` order.
    pub(crate) retry: VecDeque<(f64, TimedRequest)>,
    /// Aborts so far, per request id.
    attempts: BTreeMap<u64, usize>,
}

impl FaultLayer {
    /// The fault layer for a cluster of `total_gpus` devices; fails with
    /// [`FaultError::GpuOutOfRange`] when the schedule targets a device
    /// outside it.
    pub(crate) fn new(opts: FaultOptions, total_gpus: usize) -> Result<Self, ServeError> {
        let max_gpu = opts.schedule.events().iter().filter_map(|e| e.kind.gpu()).max();
        if let Some(gpu) = max_gpu.filter(|&gpu| gpu >= total_gpus) {
            return Err(ServeError::Fault(FaultError::GpuOutOfRange { gpu, total: total_gpus }));
        }
        let straggler = StragglerDetector::new(opts.straggler);
        Ok(Self {
            opts,
            cursor: 0,
            gpus: vec![Health::Healthy; total_gpus],
            link_time: 1.0,
            link_latency: 0.0,
            straggler,
            undetected: Vec::new(),
            removed: BTreeSet::new(),
            retry: VecDeque::new(),
            attempts: BTreeMap::new(),
        })
    }

    /// Replays the fault world up to the replica's clock: logs the events
    /// that fired, and for each failure whose heartbeat timeout matured,
    /// moves the clock to its detection and aborts the pool. Returns the
    /// devices now removed from the topology.
    pub(crate) fn replay(
        &mut self,
        state: &mut ReplicaState,
        metrics: &mut Metrics,
        events: &mut EventLog,
    ) -> usize {
        for e in self.advance(state.t) {
            metrics.inc("faults_injected");
            events.push(Event::Fault { t: e.t, desc: e.kind.to_string().into() });
        }
        for (gpu, t_d) in self.mature_detections(state.t) {
            // Pay the rest of the heartbeat window if the phase boundary
            // arrived before the timeout elapsed.
            state.t = state.t.max(t_d);
            metrics.inc("faults_detected");
            events.push(Event::FaultDetected { t: state.t, gpu, aborted: state.pool().len() });
            // The failed device held a KV shard for every in-flight query:
            // abort them all into the retry queue.
            self.abort(state, metrics, events);
        }
        self.removed.len()
    }

    /// Applies every fault event with activation time `<= t` — device and
    /// link health, detection bookkeeping — and returns the fired events
    /// in order. Idempotent for a fixed `t`.
    fn advance(&mut self, t: f64) -> &[FaultEvent] {
        let start = self.cursor;
        while let Some(e) = self.opts.schedule.events().get(self.cursor).copied() {
            if e.t > t {
                break;
            }
            self.cursor += 1;
            match e.kind {
                FaultKind::GpuFail { gpu } => {
                    if let Some(h) = self.gpus.get_mut(gpu) {
                        *h = Health::Failed;
                    }
                    self.undetected.push((gpu, e.t + self.opts.detection_delay));
                }
                FaultKind::GpuSlowdown { gpu, factor } => {
                    // A slowdown does not resurrect a dead device.
                    if let Some(h) = self.gpus.get_mut(gpu).filter(|h| **h != Health::Failed) {
                        *h = Health::Slowed(factor);
                    }
                }
                FaultKind::GpuRecover { gpu } => {
                    if let Some(h) = self.gpus.get_mut(gpu) {
                        *h = Health::Healthy;
                    }
                    // A recovered device rejoins the topology: clear any
                    // pending detection (the flap healed before the
                    // heartbeat timed out) and any standing removal.
                    self.undetected.retain(|&(g, _)| g != gpu);
                    self.removed.remove(&gpu);
                }
                FaultKind::LinkDegrade { bw_factor, latency_add } => {
                    self.link_time = 1.0 / bw_factor;
                    self.link_latency = latency_add;
                }
            }
        }
        &self.opts.schedule.events()[start..self.cursor]
    }

    /// Drains failures whose heartbeat timeout has matured by time `t`,
    /// removing them from the topology. Returns `(gpu, detection time)`
    /// pairs in firing order.
    fn mature_detections(&mut self, t: f64) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.undetected.len() {
            let (gpu, t_d) = self.undetected[i];
            if t_d <= t {
                self.undetected.remove(i);
                self.removed.insert(gpu);
                out.push((gpu, t_d));
            } else {
                i += 1;
            }
        }
        out
    }

    /// Current runtime multipliers. Removed devices do not dilate (they no
    /// longer run work).
    pub(crate) fn factors(&self) -> FaultFactors {
        let dilation = self.worst_slowed_gpu().map_or(1.0, |(_, f)| f);
        FaultFactors { dilation, link_time: self.link_time, link_latency: self.link_latency }
    }

    /// The most-slowed device still in the topology, if any. Ties break
    /// toward the lowest index.
    fn worst_slowed_gpu(&self) -> Option<(usize, f64)> {
        let mut worst: Option<(usize, f64)> = None;
        for (g, h) in self.gpus.iter().enumerate() {
            if let Health::Slowed(f) = *h {
                if !self.removed.contains(&g) && worst.is_none_or(|(_, wf)| f > wf) {
                    worst = Some((g, f));
                }
            }
        }
        worst
    }

    /// The earliest virtual time at which the fault world changes: the
    /// next scheduled event or the next maturing detection. The idle loop
    /// folds this into its wake-up target so failures are detected (and
    /// replans installed) even across idle gaps.
    pub(crate) fn next_wake(&self) -> Option<f64> {
        let next_event = self.opts.schedule.events().get(self.cursor).map(|e| e.t);
        let next_detect = self.undetected.iter().map(|&(_, t_d)| t_d).reduce(f64::min);
        match (next_event, next_detect) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Aborts every in-flight query after a device failure: its KV entry is
    /// released and it re-enters admission after an exponential backoff,
    /// or is dropped once its retry budget is exhausted.
    fn abort(&mut self, state: &mut ReplicaState, metrics: &mut Metrics, events: &mut EventLog) {
        let t = state.t;
        state.clear_pool(|req| {
            let id = req.request.id;
            let n = self.attempts.entry(id).or_insert(0);
            *n += 1;
            let attempt = *n;
            if attempt > self.opts.max_retries {
                metrics.inc("requests_lost");
                events.push(Event::RequestLost { t, id, attempts: attempt });
            } else {
                metrics.inc("retries");
                let eligible_at = t + self.opts.backoff_base * 2.0f64.powi(attempt as i32 - 1);
                events.push(Event::RequestRetry { t, id, attempt, eligible_at });
                // Original arrival is kept: TTFT/E2E latency of a retried
                // request honestly includes the failure it survived.
                let i = self.retry.partition_point(|(at, r)| {
                    at.total_cmp(&eligible_at).then(r.request.id.cmp(&id)).is_lt()
                });
                self.retry.insert(i, (eligible_at, req));
            }
        });
    }

    /// Moves the retries whose backoff has elapsed into the replica's
    /// queue.
    pub(crate) fn readmit(&mut self, state: &mut ReplicaState) {
        while let Some((_, r)) = self.retry.pop_front_if(|(at, _)| *at <= state.t) {
            state.queue.push(r);
        }
    }

    /// Straggler confirmation from a phase's dilated against its nominal
    /// time, at time `t`. A confirmed straggler at or above
    /// [`FaultOptions::evict_slowdown`] is evicted: the next
    /// [`replay`](Self::replay) reports it removed, and the loop replans
    /// onto the survivors.
    pub(crate) fn confirm_straggler(
        &mut self,
        phase: &PhaseRecord,
        t: f64,
        metrics: &mut Metrics,
        events: &mut EventLog,
    ) {
        if self.straggler.observe(phase.dilated, phase.nominal).is_none() {
            return;
        }
        // Link degradation also inflates the ratio; only a device that is
        // actually slowed can be blamed (and possibly evicted).
        if let Some((gpu, factor)) = self.worst_slowed_gpu() {
            let evicted = factor >= self.opts.evict_slowdown;
            metrics.inc("stragglers_detected");
            events.push(Event::StragglerDetected { t, gpu, factor, evicted });
            if evicted {
                self.removed.insert(gpu);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A fault layer on 4 devices replaying `events` with a 0.5 s
    /// heartbeat timeout.
    fn layer(events: Vec<FaultEvent>) -> FaultLayer {
        let schedule = FaultSchedule::new(events).expect("valid");
        let opts = FaultOptions { schedule, detection_delay: 0.5, ..FaultOptions::default() };
        FaultLayer::new(opts, 4).expect("in range")
    }

    #[test]
    fn new_sorts_and_validates() {
        let s = FaultSchedule::new(vec![
            FaultEvent { t: 5.0, kind: FaultKind::GpuRecover { gpu: 0 } },
            FaultEvent { t: 1.0, kind: FaultKind::GpuFail { gpu: 0 } },
        ])
        .expect("valid events");
        assert_eq!(s.events().len(), 2);
        assert!(s.events()[0].t < s.events()[1].t, "sorted by time");
    }

    #[test]
    fn rejects_bad_events() {
        let bad_time = FaultEvent { t: f64::NAN, kind: FaultKind::GpuFail { gpu: 0 } };
        assert!(matches!(
            FaultSchedule::new(vec![bad_time]),
            Err(FaultError::InvalidEvent { index: 0, .. })
        ));
        let speedup = FaultEvent { t: 0.0, kind: FaultKind::GpuSlowdown { gpu: 0, factor: 0.5 } };
        assert!(FaultSchedule::new(vec![speedup]).is_err());
        let widen = FaultEvent {
            t: 0.0,
            kind: FaultKind::LinkDegrade { bw_factor: 1.5, latency_add: 0.0 },
        };
        assert!(FaultSchedule::new(vec![widen]).is_err());
        let neg = FaultEvent {
            t: 0.0,
            kind: FaultKind::LinkDegrade { bw_factor: 0.5, latency_add: -1.0 },
        };
        assert!(FaultSchedule::new(vec![neg]).is_err());
    }

    #[test]
    fn display_names_the_device() {
        let k = FaultKind::GpuSlowdown { gpu: 3, factor: 2.0 };
        assert!(k.to_string().contains("gpu3"));
        assert_eq!(k.gpu(), Some(3));
        assert_eq!(FaultKind::LinkDegrade { bw_factor: 0.5, latency_add: 0.0 }.gpu(), None);
    }

    #[test]
    fn fault_error_display_is_informative() {
        let e = FaultError::InvalidEvent { index: 3, why: "time must be finite" };
        assert!(e.to_string().contains("#3"));
        let e = FaultError::GpuOutOfRange { gpu: 9, total: 4 };
        assert!(e.to_string().contains("gpu9") && e.to_string().contains('4'));
    }

    #[test]
    fn advance_applies_in_order_and_reports_fired() {
        let mut l = layer(vec![
            FaultEvent { t: 1.0, kind: FaultKind::GpuSlowdown { gpu: 1, factor: 2.0 } },
            FaultEvent { t: 2.0, kind: FaultKind::GpuFail { gpu: 0 } },
            FaultEvent { t: 9.0, kind: FaultKind::GpuRecover { gpu: 0 } },
        ]);
        assert!(l.advance(0.5).is_empty());
        assert_eq!(l.next_wake(), Some(1.0));
        assert_eq!(l.advance(2.0).len(), 2);
        assert_eq!(l.gpus[0], Health::Failed);
        assert_eq!(l.gpus[1], Health::Slowed(2.0));
        assert_eq!(l.gpus[2], Health::Healthy);
        // Idempotent at a fixed time.
        assert!(l.advance(2.0).is_empty());
        l.advance(10.0);
        assert_eq!(l.gpus[0], Health::Healthy);
        assert_eq!(l.next_wake(), None);
    }

    #[test]
    fn slowdown_does_not_resurrect_failed_gpu() {
        let mut l = layer(vec![
            FaultEvent { t: 1.0, kind: FaultKind::GpuFail { gpu: 2 } },
            FaultEvent { t: 2.0, kind: FaultKind::GpuSlowdown { gpu: 2, factor: 3.0 } },
        ]);
        l.advance(5.0);
        assert_eq!(l.gpus[2], Health::Failed, "failed devices are not stragglers");
    }

    #[test]
    fn out_of_range_gpu_is_rejected_at_construction() {
        let schedule = FaultSchedule::new(vec![
            FaultEvent { t: 0.0, kind: FaultKind::GpuFail { gpu: 7 } },
            FaultEvent { t: 0.0, kind: FaultKind::GpuFail { gpu: 5 } },
        ])
        .expect("valid");
        let opts = FaultOptions { schedule, ..FaultOptions::default() };
        assert!(matches!(
            FaultLayer::new(opts, 4).err(),
            Some(ServeError::Fault(FaultError::GpuOutOfRange { gpu: 7, total: 4 }))
        ));
    }

    #[test]
    fn link_degrade_replaces_and_restores() {
        let mut l = layer(vec![
            FaultEvent {
                t: 1.0,
                kind: FaultKind::LinkDegrade { bw_factor: 0.5, latency_add: 0.001 },
            },
            FaultEvent {
                t: 2.0,
                kind: FaultKind::LinkDegrade { bw_factor: 1.0, latency_add: 0.0 },
            },
        ]);
        l.advance(1.0);
        assert_ne!(l.factors(), FaultFactors::nominal());
        assert!(l.factors().link_time > 1.9);
        l.advance(2.0);
        assert_eq!(l.factors(), FaultFactors::nominal());
    }

    #[test]
    fn failure_matures_through_detection_delay() {
        let mut l = layer(vec![FaultEvent { t: 10.0, kind: FaultKind::GpuFail { gpu: 1 } }]);
        assert_eq!(l.advance(10.0).len(), 1);
        assert!(l.mature_detections(10.2).is_empty(), "heartbeat not yet timed out");
        assert_eq!(l.next_wake(), Some(10.5));
        assert_eq!(l.mature_detections(10.5), vec![(1, 10.5)]);
        assert_eq!(l.removed.len(), 1);
        assert_eq!(l.next_wake(), None);
    }

    #[test]
    fn recovery_clears_detection_and_eviction() {
        let mut l = layer(vec![
            FaultEvent { t: 1.0, kind: FaultKind::GpuFail { gpu: 0 } },
            FaultEvent { t: 5.0, kind: FaultKind::GpuRecover { gpu: 0 } },
            FaultEvent { t: 5.0, kind: FaultKind::GpuRecover { gpu: 2 } },
        ]);
        l.advance(1.0);
        l.mature_detections(2.0);
        l.removed.insert(2);
        assert_eq!(l.removed.len(), 2);
        l.advance(5.0);
        assert!(l.removed.is_empty(), "recovery restores the whole topology");
    }

    #[test]
    fn flapping_failure_heals_before_detection() {
        let mut l = layer(vec![
            FaultEvent { t: 1.0, kind: FaultKind::GpuFail { gpu: 0 } },
            FaultEvent { t: 1.1, kind: FaultKind::GpuRecover { gpu: 0 } },
        ]);
        l.advance(2.0);
        assert!(l.mature_detections(2.0).is_empty(), "flap healed within the heartbeat window");
        assert!(l.removed.is_empty());
    }

    #[test]
    fn factors_exclude_failed_and_evicted_devices() {
        let mut l = layer(vec![
            FaultEvent { t: 1.0, kind: FaultKind::GpuSlowdown { gpu: 0, factor: 3.0 } },
            FaultEvent { t: 1.0, kind: FaultKind::GpuSlowdown { gpu: 1, factor: 1.5 } },
            FaultEvent {
                t: 1.0,
                kind: FaultKind::LinkDegrade { bw_factor: 0.5, latency_add: 0.002 },
            },
        ]);
        l.advance(1.0);
        assert_eq!(l.worst_slowed_gpu(), Some((0, 3.0)));
        assert!(l.factors().dilation >= 3.0);
        l.removed.insert(0);
        let f = l.factors();
        assert!(f.dilation < 3.0 && f.dilation >= 1.5, "evicted straggler stops dilating");
        assert_eq!(l.worst_slowed_gpu(), Some((1, 1.5)));
        assert!(f.link_time > 1.9 && f.link_latency > 0.0);
    }

    #[test]
    fn empty_schedule_is_identity() {
        let mut l = layer(Vec::new());
        assert!(l.advance(1e9).is_empty());
        assert_eq!(l.factors(), FaultFactors::nominal());
        assert_eq!(l.next_wake(), None);
        assert!(l.removed.is_empty());
    }

    #[test]
    fn straggler_detector_debounces_and_latches() {
        let mut det =
            StragglerDetector::new(StragglerOptions { rel_threshold: 1.25, consecutive: 3 });
        assert!(det.observe(2.0, 1.0).is_none());
        assert!(det.observe(2.0, 1.0).is_none());
        let declared = det.observe(2.0, 1.0);
        assert!(declared.is_some_and(|r| r >= 2.0), "third consecutive hit confirms");
        assert!(det.observe(2.0, 1.0).is_none(), "latched: no repeat declaration");
        assert!(det.observe(1.0, 1.0).is_none(), "ratio back to nominal unlatches");
        assert!(det.observe(2.0, 1.0).is_none());
        assert!(det.observe(2.0, 1.0).is_none());
        assert!(det.observe(2.0, 1.0).is_some(), "re-declares after unlatching");
    }

    #[test]
    fn zero_expected_phase_is_skipped() {
        let mut det =
            StragglerDetector::new(StragglerOptions { rel_threshold: 1.25, consecutive: 1 });
        assert!(det.observe(1.0, 0.0).is_none());
    }

    #[test]
    fn default_options_validate() {
        assert!(FaultOptions::default().validate().is_ok());
        let bad = FaultOptions { evict_slowdown: 1.0, ..FaultOptions::default() };
        assert!(bad.validate().is_err());
        let bad = FaultOptions { detection_delay: f64::NAN, ..FaultOptions::default() };
        assert!(bad.validate().is_err());
    }

    const GPUS: usize = 4;
    const HORIZON: f64 = 100.0;

    /// One valid event of any kind on a `GPUS`-device cluster.
    fn event() -> impl Strategy<Value = FaultEvent> {
        let gpu = 0..GPUS;
        let kind = prop_oneof![
            gpu.clone().prop_map(|gpu| FaultKind::GpuFail { gpu }),
            (gpu.clone(), 1.0..4.0f64)
                .prop_map(|(gpu, factor)| FaultKind::GpuSlowdown { gpu, factor }),
            (0.25..1.0f64, 0.0..0.01f64).prop_map(|(bw_factor, latency_add)| {
                FaultKind::LinkDegrade { bw_factor, latency_add }
            }),
            gpu.prop_map(|gpu| FaultKind::GpuRecover { gpu }),
        ];
        (0.0..HORIZON, kind).prop_map(|(t, kind)| FaultEvent { t, kind })
    }

    fn schedule() -> impl Strategy<Value = FaultSchedule> {
        prop::collection::vec(event(), 0..12)
            .prop_map(|events| FaultSchedule::new(events).expect("drawn events are valid"))
    }

    /// A layer on `GPUS` devices replaying `schedule`.
    fn replaying(schedule: FaultSchedule) -> FaultLayer {
        let opts = FaultOptions { schedule, ..FaultOptions::default() };
        FaultLayer::new(opts, GPUS).expect("in range")
    }

    /// Every device's health and the runtime multipliers: all the replay
    /// decides.
    fn snapshot(l: &FaultLayer) -> (Vec<Health>, FaultFactors) {
        (l.gpus.clone(), l.factors())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Replaying any schedule and then healing every device and
        /// restoring the links leaves nothing degraded.
        #[test]
        fn full_recovery_restores_every_device_and_the_links(schedule in schedule()) {
            let t = 10.0 * HORIZON;
            let mut events = schedule.events().to_vec();
            events.extend((0..GPUS).map(|gpu| FaultEvent { t, kind: FaultKind::GpuRecover { gpu } }));
            events.push(FaultEvent {
                t,
                kind: FaultKind::LinkDegrade { bw_factor: 1.0, latency_add: 0.0 },
            });
            let mut l = replaying(FaultSchedule::new(events).expect("valid"));
            l.advance(20.0 * HORIZON);
            let (gpus, factors) = snapshot(&l);
            prop_assert!(gpus.iter().all(|h| *h == Health::Healthy), "not healed: {:?}", gpus);
            prop_assert_eq!(factors, FaultFactors::nominal());
            prop_assert_eq!(l.next_wake(), None);
        }

        /// `advance` is idempotent at a fixed time and monotone in what it
        /// has applied: replaying the same prefix twice fires nothing new.
        #[test]
        fn advance_is_idempotent(schedule in schedule(), t in 0.0..1.5 * HORIZON) {
            let mut l = replaying(schedule);
            let fired = l.advance(t).len();
            prop_assert_eq!(l.advance(t).len(), 0, "replaying t fires nothing (first pass: {})", fired);
            let before = snapshot(&l);
            l.advance(t);
            prop_assert_eq!(snapshot(&l), before);
        }
    }
}
