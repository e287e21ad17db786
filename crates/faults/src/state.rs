//! The replay state machine: what is broken *right now*.

use crate::error::FaultError;
use crate::schedule::{FaultEvent, FaultKind, FaultSchedule};

/// Health of a single device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GpuStatus {
    /// Full speed, accepting work.
    Healthy,
    /// Straggling by the contained factor (≥ 1); still accepting work.
    Slowed(f64),
    /// Dead: rejects all work until a `GpuRecover`.
    Failed,
}

/// Health of the interconnect (applies to intra- and inter-node links).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkStatus {
    /// Bandwidth multiplier in `(0, 1]`; 1 means healthy.
    pub bw_factor: f64,
    /// Added latency in virtual seconds; 0 means healthy.
    pub latency_add: f64,
}

impl LinkStatus {
    /// Healthy links: full bandwidth, no added latency.
    pub fn nominal() -> Self {
        Self { bw_factor: 1.0, latency_add: 0.0 }
    }

    /// How much longer a transfer takes under this status: the multiplier
    /// on the bandwidth-bound portion. Added latency is accounted
    /// separately by the consumer (it is per-transfer, not proportional).
    pub fn time_factor(&self) -> f64 {
        1.0 / self.bw_factor
    }
}

/// Replays a [`FaultSchedule`] against a virtual clock and answers
/// "what is degraded at time `t`".
#[derive(Debug, Clone)]
pub struct FaultState {
    schedule: FaultSchedule,
    /// Index of the first event not yet applied.
    cursor: usize,
    gpus: Vec<GpuStatus>,
    link: LinkStatus,
}

impl FaultState {
    /// Builds the replay state for a cluster of `total_gpus` devices.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::GpuOutOfRange`] if any event targets a device
    /// index `>= total_gpus`.
    pub fn new(schedule: FaultSchedule, total_gpus: usize) -> Result<Self, FaultError> {
        if let Some(gpu) = schedule.max_gpu() {
            if gpu >= total_gpus {
                return Err(FaultError::GpuOutOfRange { gpu, total: total_gpus });
            }
        }
        Ok(Self {
            schedule,
            cursor: 0,
            gpus: vec![GpuStatus::Healthy; total_gpus],
            link: LinkStatus::nominal(),
        })
    }

    /// Applies every event with activation time `<= t` and returns the
    /// events that fired, in activation order. Idempotent for a fixed `t`;
    /// `t` may only meaningfully move forward (earlier calls with larger
    /// `t` have already consumed earlier events).
    pub fn advance(&mut self, t: f64) -> Vec<FaultEvent> {
        let mut fired = Vec::new();
        while let Some(e) = self.schedule.events().get(self.cursor).copied() {
            if e.t > t {
                break;
            }
            self.apply(e.kind);
            fired.push(e);
            self.cursor += 1;
        }
        fired
    }

    fn apply(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::GpuFail { gpu } => {
                if let Some(s) = self.gpus.get_mut(gpu) {
                    *s = GpuStatus::Failed;
                }
            }
            FaultKind::GpuSlowdown { gpu, factor } => {
                if let Some(s) = self.gpus.get_mut(gpu) {
                    // A slowdown does not resurrect a dead device.
                    if !matches!(s, GpuStatus::Failed) {
                        *s = GpuStatus::Slowed(factor);
                    }
                }
            }
            FaultKind::GpuRecover { gpu } => {
                if let Some(s) = self.gpus.get_mut(gpu) {
                    *s = GpuStatus::Healthy;
                }
            }
            FaultKind::LinkDegrade { bw_factor, latency_add } => {
                self.link = LinkStatus { bw_factor, latency_add };
            }
        }
    }

    /// Activation time of the next unapplied event, if any. Lets the
    /// consumer's idle-jump wake up exactly when the world changes.
    pub fn next_event_time(&self) -> Option<f64> {
        self.schedule.events().get(self.cursor).map(|e| e.t)
    }

    /// Current status of device `gpu` (out-of-range reads as `Healthy`;
    /// construction range-checks the schedule, so that cannot be hit by
    /// replayed events).
    pub fn status(&self, gpu: usize) -> GpuStatus {
        self.gpus.get(gpu).copied().unwrap_or(GpuStatus::Healthy)
    }

    /// Current link health.
    pub fn link(&self) -> LinkStatus {
        self.link
    }

    /// Devices in the cluster being replayed against.
    pub fn total_gpus(&self) -> usize {
        self.gpus.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FaultEvent, FaultKind};

    fn schedule(events: Vec<FaultEvent>) -> FaultSchedule {
        FaultSchedule::new(events).expect("valid schedule")
    }

    #[test]
    fn advance_applies_in_order_and_reports_fired() {
        let s = schedule(vec![
            FaultEvent { t: 1.0, kind: FaultKind::GpuSlowdown { gpu: 1, factor: 2.0 } },
            FaultEvent { t: 2.0, kind: FaultKind::GpuFail { gpu: 0 } },
            FaultEvent { t: 9.0, kind: FaultKind::GpuRecover { gpu: 0 } },
        ]);
        let mut st = FaultState::new(s, 4).expect("in range");
        assert!(st.advance(0.5).is_empty());
        assert_eq!(st.next_event_time(), Some(1.0));
        let fired = st.advance(2.0);
        assert_eq!(fired.len(), 2);
        assert_eq!(st.status(0), GpuStatus::Failed);
        assert_eq!(st.status(1), GpuStatus::Slowed(2.0));
        assert_eq!(st.status(2), GpuStatus::Healthy);
        // Idempotent at a fixed time.
        assert!(st.advance(2.0).is_empty());
        st.advance(10.0);
        assert_eq!(st.status(0), GpuStatus::Healthy);
        assert_eq!(st.next_event_time(), None);
    }

    #[test]
    fn slowdown_does_not_resurrect_failed_gpu() {
        let s = schedule(vec![
            FaultEvent { t: 1.0, kind: FaultKind::GpuFail { gpu: 2 } },
            FaultEvent { t: 2.0, kind: FaultKind::GpuSlowdown { gpu: 2, factor: 3.0 } },
        ]);
        let mut st = FaultState::new(s, 4).expect("in range");
        st.advance(5.0);
        assert_eq!(st.status(2), GpuStatus::Failed, "failed devices are not stragglers");
    }

    #[test]
    fn out_of_range_gpu_is_rejected_at_construction() {
        let s = schedule(vec![FaultEvent { t: 0.0, kind: FaultKind::GpuFail { gpu: 7 } }]);
        assert_eq!(
            FaultState::new(s, 4).err(),
            Some(FaultError::GpuOutOfRange { gpu: 7, total: 4 })
        );
    }

    #[test]
    fn link_degrade_replaces_and_restores() {
        let s = schedule(vec![
            FaultEvent {
                t: 1.0,
                kind: FaultKind::LinkDegrade { bw_factor: 0.5, latency_add: 0.001 },
            },
            FaultEvent {
                t: 2.0,
                kind: FaultKind::LinkDegrade { bw_factor: 1.0, latency_add: 0.0 },
            },
        ]);
        let mut st = FaultState::new(s, 4).expect("in range");
        st.advance(1.0);
        assert_ne!(st.link(), LinkStatus::nominal());
        assert!(st.link().time_factor() > 1.9);
        st.advance(2.0);
        assert_eq!(st.link(), LinkStatus::nominal());
    }
}
