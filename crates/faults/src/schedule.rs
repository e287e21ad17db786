//! The fault-event vocabulary and the validated, time-sorted schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::FaultError;

/// What happens to the cluster at a fault event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Virtual time at which the fault becomes active.
    pub t: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A validated fault scenario: events sorted by activation time.
///
/// The schedule is plain serializable data — persist it next to a run's
/// event log and the run is fully reconstructible.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

/// Tuning of [`FaultSchedule::random`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomFaultOptions {
    /// Devices in the target cluster (events stay in `0..gpus`).
    pub gpus: usize,
    /// Events are drawn with activation times in `[0, horizon)`.
    pub horizon: f64,
    /// Number of events to draw.
    pub events: usize,
    /// Largest slowdown factor drawn (factors land in `[1, max_slowdown]`).
    pub max_slowdown: f64,
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

    /// Draws a random but *valid* scenario, deterministically in `seed`.
    ///
    /// Invariants the generator maintains (so every drawn schedule is
    /// survivable): at least one device stays alive at all times — a
    /// `GpuFail` is only emitted while fewer than `gpus − 1` devices are
    /// down — and `GpuRecover` only targets a currently failed or slowed
    /// device. Slowdown factors land in `[1, max_slowdown]`; link events
    /// draw `bw_factor` from `[0.25, 1]` and a small added latency.
    ///
    /// Returns the empty schedule when `gpus` is 0, `events` is 0, or
    /// `horizon` is not positive.
    pub fn random(seed: u64, opts: &RandomFaultOptions) -> Self {
        #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must be rejected too")]
        if opts.gpus == 0 || opts.events == 0 || !(opts.horizon > 0.0) {
            return Self::empty();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let max_slow = opts.max_slowdown.max(1.0);
        // Track the simulated status so the draw never kills the cluster.
        let mut failed = vec![false; opts.gpus];
        let mut slowed = vec![false; opts.gpus];
        let mut events = Vec::with_capacity(opts.events);
        let mut t = 0.0f64;
        for _ in 0..opts.events {
            t += rng.gen_range(0.0..opts.horizon / opts.events as f64);
            let down = failed.iter().filter(|&&f| f).count();
            let impaired: Vec<usize> = (0..opts.gpus).filter(|&g| failed[g] || slowed[g]).collect();
            let kind = match rng.gen_range(0u32..4) {
                0 if down + 1 < opts.gpus => {
                    let alive: Vec<usize> = (0..opts.gpus).filter(|&g| !failed[g]).collect();
                    let gpu = alive[rng.gen_range(0..alive.len())];
                    failed[gpu] = true;
                    FaultKind::GpuFail { gpu }
                }
                1 => {
                    let gpu = rng.gen_range(0..opts.gpus);
                    slowed[gpu] = true;
                    FaultKind::GpuSlowdown { gpu, factor: rng.gen_range(1.0..max_slow.max(1.01)) }
                }
                2 => FaultKind::LinkDegrade {
                    bw_factor: rng.gen_range(0.25..1.0),
                    latency_add: rng.gen_range(0.0..0.01),
                },
                _ if !impaired.is_empty() => {
                    let gpu = impaired[rng.gen_range(0..impaired.len())];
                    failed[gpu] = false;
                    slowed[gpu] = false;
                    FaultKind::GpuRecover { gpu }
                }
                // Nothing to recover (or the failure slot was vetoed):
                // fall back to a link restore, always valid.
                _ => FaultKind::LinkDegrade { bw_factor: 1.0, latency_add: 0.0 },
            };
            events.push(FaultEvent { t, kind });
        }
        // Generated events are valid by construction and emitted in time
        // order, so validation cannot fail.
        Self { events }
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
    fn random_is_deterministic_and_valid() {
        let opts = RandomFaultOptions { gpus: 4, horizon: 100.0, events: 32, max_slowdown: 3.0 };
        let a = FaultSchedule::random(7, &opts);
        let b = FaultSchedule::random(7, &opts);
        let c = FaultSchedule::random(8, &opts);
        assert_eq!(a, b, "same seed, same scenario");
        assert_ne!(a, c, "different seed, different scenario");
        assert_eq!(a.len(), 32);
        // Round-trips through the validating constructor.
        assert_eq!(FaultSchedule::new(a.events().to_vec()).expect("valid"), a);
        assert!(a.max_gpu().is_some_and(|g| g < 4));
    }

    #[test]
    fn random_degenerate_inputs_yield_empty() {
        let z = RandomFaultOptions { gpus: 0, horizon: 10.0, events: 4, max_slowdown: 2.0 };
        assert!(FaultSchedule::random(1, &z).is_empty());
        let z = RandomFaultOptions { gpus: 4, horizon: 0.0, events: 4, max_slowdown: 2.0 };
        assert!(FaultSchedule::random(1, &z).is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let s = FaultSchedule::new(vec![
            FaultEvent { t: 1.5, kind: FaultKind::GpuFail { gpu: 1 } },
            FaultEvent {
                t: 2.5,
                kind: FaultKind::LinkDegrade { bw_factor: 0.5, latency_add: 0.001 },
            },
            FaultEvent { t: 9.0, kind: FaultKind::GpuRecover { gpu: 1 } },
        ])
        .expect("valid");
        let json = serde_json::to_string(&s).expect("serializes");
        let back: FaultSchedule = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, s);
    }

    #[test]
    fn display_names_the_device() {
        let k = FaultKind::GpuSlowdown { gpu: 3, factor: 2.0 };
        assert!(k.to_string().contains("gpu3"));
        assert_eq!(k.gpu(), Some(3));
        assert_eq!(FaultKind::LinkDegrade { bw_factor: 0.5, latency_add: 0.0 }.gpu(), None);
    }
}
