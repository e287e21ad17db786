//! Online fault handling: detection, dilation and degradation policy.
//!
//! The [`FaultDriver`] sits between a replayed
//! [`exegpt_faults::FaultSchedule`] and the serving loop. It advances the
//! fault state on the loop's *virtual* clock (never the wall clock), and
//! answers the three questions the loop asks at every phase boundary:
//!
//! 1. **What just broke?** Fired events are logged; a `GpuFail` matures
//!    into a *detection* only after [`FaultOptions::detection_delay`] of
//!    virtual time — the heartbeat-timeout model — at which point the
//!    in-flight pool is aborted into the retry queue and the loop replans
//!    onto the surviving topology.
//! 2. **How slow are we right now?** [`FaultDriver::factors`] gives the
//!    compute dilation (worst live straggler) and link factors the loop
//!    multiplies into phase timings. Stragglers are *tolerated* below
//!    [`FaultOptions::evict_slowdown`] and evicted (removed from the
//!    topology, plan recomputed) at or above it, once the
//!    [`StragglerDetector`] has confirmed the slowdown from observed phase
//!    timings.
//! 3. **When should an idle loop wake up?** [`FaultDriver::next_wake`]
//!    folds pending fault activations and maturing detections into the
//!    idle-jump target.
//!
//! With an empty schedule every answer is the identity (dilation exactly
//! `1.0`, no wakes, no detections), so enabling the fault layer on a
//! healthy run is a byte-exact no-op — the differential test pins this.

use std::collections::BTreeSet;

use exegpt_faults::{FaultEvent, FaultKind, FaultSchedule, FaultState, GpuStatus};

use crate::error::ServeError;

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

/// Tuning of the [`StragglerDetector`].
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
pub struct StragglerDetector {
    opts: StragglerOptions,
    hits: usize,
    latched: bool,
}

impl StragglerDetector {
    /// Creates a detector.
    pub fn new(opts: StragglerOptions) -> Self {
        Self { opts, hits: 0, latched: false }
    }

    /// Feeds one executed phase. Returns the observed/expected ratio when
    /// this observation *confirms* a straggler (threshold held for
    /// `consecutive` phases, not already latched).
    pub fn observe(&mut self, observed: f64, expected: f64) -> Option<f64> {
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

/// Compute and link multipliers the loop applies to phase timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultFactors {
    /// Phase-time multiplier from the worst live, non-evicted straggler
    /// (exactly `1.0` when nominal).
    pub dilation: f64,
    /// KV-handover multiplier from link bandwidth degradation (exactly
    /// `1.0` when nominal).
    pub link_time: f64,
    /// Added per-handover latency in virtual seconds (exactly `0.0` when
    /// nominal).
    pub link_latency: f64,
}

impl FaultFactors {
    /// The identity: nominal cluster, no dilation.
    pub fn nominal() -> Self {
        Self { dilation: 1.0, link_time: 1.0, link_latency: 0.0 }
    }
}

/// Replays a fault scenario against the serving loop's virtual clock and
/// tracks the degradation policy's bookkeeping (detections pending the
/// heartbeat timeout, stragglers evicted from the topology).
#[derive(Debug, Clone)]
pub struct FaultDriver {
    state: FaultState,
    detection_delay: f64,
    /// Failures that fired but have not yet matured through the heartbeat
    /// timeout: `(gpu, detection time)`, in firing order.
    undetected: Vec<(usize, f64)>,
    /// Failures the loop has detected and removed from the topology.
    detected: BTreeSet<usize>,
    /// Stragglers the loop evicted from the topology.
    evicted: BTreeSet<usize>,
}

impl FaultDriver {
    /// Builds the driver for a cluster of `total_gpus` devices.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Fault`] when the schedule targets a device
    /// outside the cluster.
    pub fn new(schedule: FaultSchedule, total_gpus: usize) -> Result<Self, ServeError> {
        let state = FaultState::new(schedule, total_gpus).map_err(ServeError::Fault)?;
        Ok(Self {
            state,
            detection_delay: FaultOptions::default().detection_delay,
            undetected: Vec::new(),
            detected: BTreeSet::new(),
            evicted: BTreeSet::new(),
        })
    }

    /// Overrides the heartbeat timeout (virtual seconds).
    pub fn with_detection_delay(mut self, delay: f64) -> Self {
        self.detection_delay = delay;
        self
    }

    /// Applies every fault event with activation time `<= t`, updating the
    /// detection and eviction bookkeeping, and returns the fired events in
    /// order.
    pub fn advance(&mut self, t: f64) -> Vec<FaultEvent> {
        let fired = self.state.advance(t);
        for e in &fired {
            match e.kind {
                FaultKind::GpuFail { gpu } => {
                    self.undetected.push((gpu, e.t + self.detection_delay));
                }
                FaultKind::GpuRecover { gpu } => {
                    // A recovered device rejoins the topology: clear any
                    // pending detection (the flap healed before the
                    // heartbeat timed out) and any standing removal.
                    self.undetected.retain(|&(g, _)| g != gpu);
                    self.detected.remove(&gpu);
                    self.evicted.remove(&gpu);
                }
                FaultKind::GpuSlowdown { .. } | FaultKind::LinkDegrade { .. } => {}
            }
        }
        fired
    }

    /// Drains failures whose heartbeat timeout has matured by time `t`,
    /// marking them detected (removed from the topology). Returns
    /// `(gpu, detection time)` pairs in firing order.
    pub fn mature_detections(&mut self, t: f64) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.undetected.len() {
            let (gpu, t_d) = self.undetected[i];
            if t_d <= t {
                self.undetected.remove(i);
                self.detected.insert(gpu);
                out.push((gpu, t_d));
            } else {
                i += 1;
            }
        }
        out
    }

    /// Evicts a confirmed straggler from the topology.
    pub fn evict(&mut self, gpu: usize) {
        self.evicted.insert(gpu);
    }

    /// Devices currently removed from the topology (detected failures plus
    /// evicted stragglers).
    pub fn removed(&self) -> usize {
        self.detected.len() + self.evicted.len()
    }

    /// Current runtime multipliers. Failed and evicted devices do not
    /// dilate (they no longer run work); link factors come straight from
    /// the fault state.
    pub fn factors(&self) -> FaultFactors {
        let mut dilation = 1.0f64;
        for g in 0..self.state.total_gpus() {
            if self.evicted.contains(&g) {
                continue;
            }
            if let GpuStatus::Slowed(f) = self.state.status(g) {
                dilation = dilation.max(f);
            }
        }
        let link = self.state.link();
        FaultFactors { dilation, link_time: link.time_factor(), link_latency: link.latency_add }
    }

    /// The most-slowed live, non-evicted device, if any.
    pub fn worst_slowed_gpu(&self) -> Option<(usize, f64)> {
        let mut worst: Option<(usize, f64)> = None;
        for g in 0..self.state.total_gpus() {
            if self.evicted.contains(&g) {
                continue;
            }
            if let GpuStatus::Slowed(f) = self.state.status(g) {
                let beat = match worst {
                    Some((_, wf)) => f > wf,
                    None => true,
                };
                if beat {
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
    pub fn next_wake(&self) -> Option<f64> {
        let next_event = self.state.next_event_time();
        let next_detect = self.undetected.iter().map(|&(_, t_d)| t_d).fold(None, |acc, t| {
            Some(match acc {
                None => t,
                Some(a) => {
                    if t < a {
                        t
                    } else {
                        a
                    }
                }
            })
        });
        match (next_event, next_detect) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exegpt_faults::{FaultEvent, FaultKind};

    fn schedule(events: Vec<FaultEvent>) -> FaultSchedule {
        FaultSchedule::new(events).expect("valid")
    }

    #[test]
    fn failure_matures_through_detection_delay() {
        let s = schedule(vec![FaultEvent { t: 10.0, kind: FaultKind::GpuFail { gpu: 1 } }]);
        let mut d = FaultDriver::new(s, 4).expect("in range").with_detection_delay(0.5);
        assert_eq!(d.advance(10.0).len(), 1);
        assert!(d.mature_detections(10.2).is_empty(), "heartbeat not yet timed out");
        assert_eq!(d.next_wake(), Some(10.5));
        assert_eq!(d.mature_detections(10.5), vec![(1, 10.5)]);
        assert_eq!(d.removed(), 1);
        assert_eq!(d.next_wake(), None);
    }

    #[test]
    fn recovery_clears_detection_and_eviction() {
        let s = schedule(vec![
            FaultEvent { t: 1.0, kind: FaultKind::GpuFail { gpu: 0 } },
            FaultEvent { t: 5.0, kind: FaultKind::GpuRecover { gpu: 0 } },
            FaultEvent { t: 5.0, kind: FaultKind::GpuRecover { gpu: 2 } },
        ]);
        let mut d = FaultDriver::new(s, 4).expect("in range").with_detection_delay(0.5);
        d.advance(1.0);
        d.mature_detections(2.0);
        d.evict(2);
        assert_eq!(d.removed(), 2);
        d.advance(5.0);
        assert_eq!(d.removed(), 0, "recovery restores the whole topology");
    }

    #[test]
    fn flapping_failure_heals_before_detection() {
        let s = schedule(vec![
            FaultEvent { t: 1.0, kind: FaultKind::GpuFail { gpu: 0 } },
            FaultEvent { t: 1.1, kind: FaultKind::GpuRecover { gpu: 0 } },
        ]);
        let mut d = FaultDriver::new(s, 4).expect("in range").with_detection_delay(0.5);
        d.advance(2.0);
        assert!(d.mature_detections(2.0).is_empty(), "flap healed within the heartbeat window");
        assert_eq!(d.removed(), 0);
    }

    #[test]
    fn factors_exclude_failed_and_evicted_devices() {
        let s = schedule(vec![
            FaultEvent { t: 1.0, kind: FaultKind::GpuSlowdown { gpu: 0, factor: 3.0 } },
            FaultEvent { t: 1.0, kind: FaultKind::GpuSlowdown { gpu: 1, factor: 1.5 } },
            FaultEvent {
                t: 1.0,
                kind: FaultKind::LinkDegrade { bw_factor: 0.5, latency_add: 0.002 },
            },
        ]);
        let mut d = FaultDriver::new(s, 4).expect("in range");
        d.advance(1.0);
        assert_eq!(d.worst_slowed_gpu(), Some((0, 3.0)));
        assert!(d.factors().dilation >= 3.0);
        d.evict(0);
        let f = d.factors();
        assert!(f.dilation < 3.0 && f.dilation >= 1.5, "evicted straggler stops dilating");
        assert_eq!(d.worst_slowed_gpu(), Some((1, 1.5)));
        assert!(f.link_time > 1.9 && f.link_latency > 0.0);
    }

    #[test]
    fn empty_schedule_is_identity() {
        let mut d = FaultDriver::new(FaultSchedule::empty(), 4).expect("empty ok");
        assert!(d.advance(1e9).is_empty());
        assert_eq!(d.factors(), FaultFactors::nominal());
        assert_eq!(d.next_wake(), None);
        assert_eq!(d.removed(), 0);
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
}
