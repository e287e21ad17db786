//! The fault-event vocabulary and the validated, time-sorted schedule.

use crate::error::FaultError;

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
/// consumer replays against, never from the wall clock (see clippy.toml), so
/// a scenario replays byte-identically.
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
    /// Validates and time-sorts `events` into a schedule.
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

    /// The empty schedule (a guaranteed no-op for every consumer).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The events, sorted by activation time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The highest GPU index any event targets.
    pub fn max_gpu(&self) -> Option<usize> {
        self.events.iter().filter_map(|e| e.kind.gpu()).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_validates() {
        let s = FaultSchedule::new(vec![
            FaultEvent { t: 5.0, kind: FaultKind::GpuRecover { gpu: 0 } },
            FaultEvent { t: 1.0, kind: FaultKind::GpuFail { gpu: 0 } },
        ])
        .expect("valid events");
        assert_eq!(s.len(), 2);
        assert!(s.events()[0].t < s.events()[1].t, "sorted by time");
        assert_eq!(s.max_gpu(), Some(0));
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
}
