//! Property-based guarantees of the fault replay.
//!
//! For *arbitrary* valid fault schedules: `advance` is idempotent at a
//! fixed time, and a tail that heals every device and restores the links
//! leaves every device healthy and the links nominal. What serving does
//! with the replayed state (survivor replans, phase dilation, restoring the
//! original plan) is tested where it happens: `crates/core/tests/replan.rs`
//! and `crates/serve/tests/faults.rs`.

use exegpt_faults::{FaultEvent, FaultKind, FaultSchedule, FaultState, GpuStatus, LinkStatus};
use proptest::prelude::*;

const GPUS: usize = 4;
const HORIZON: f64 = 100.0;

/// One valid event of any kind on a `GPUS`-device cluster.
fn event() -> impl Strategy<Value = FaultEvent> {
    let gpu = 0..GPUS;
    let kind = prop_oneof![
        gpu.clone().prop_map(|gpu| FaultKind::GpuFail { gpu }),
        (gpu.clone(), 1.0..4.0f64).prop_map(|(gpu, factor)| FaultKind::GpuSlowdown { gpu, factor }),
        (0.25..1.0f64, 0.0..0.01f64)
            .prop_map(|(bw_factor, latency_add)| FaultKind::LinkDegrade { bw_factor, latency_add }),
        gpu.prop_map(|gpu| FaultKind::GpuRecover { gpu }),
    ];
    (0.0..HORIZON, kind).prop_map(|(t, kind)| FaultEvent { t, kind })
}

fn schedule() -> impl Strategy<Value = FaultSchedule> {
    prop::collection::vec(event(), 0..12)
        .prop_map(|events| FaultSchedule::new(events).expect("drawn events are valid"))
}

/// Every device's status and the link status: all a consumer can read.
fn snapshot(state: &FaultState) -> (Vec<GpuStatus>, LinkStatus) {
    ((0..GPUS).map(|g| state.status(g)).collect(), state.link())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying any schedule and then healing every device and restoring
    /// the links leaves nothing degraded.
    #[test]
    fn full_recovery_restores_every_device_and_the_links(schedule in schedule()) {
        let t = 10.0 * HORIZON;
        let mut events = schedule.events().to_vec();
        events.extend((0..GPUS).map(|gpu| FaultEvent { t, kind: FaultKind::GpuRecover { gpu } }));
        events.push(FaultEvent { t, kind: FaultKind::LinkDegrade { bw_factor: 1.0, latency_add: 0.0 } });
        let mut state = FaultState::new(FaultSchedule::new(events).expect("valid"), GPUS)
            .expect("in range");
        state.advance(20.0 * HORIZON);
        let (gpus, link) = snapshot(&state);
        prop_assert!(gpus.iter().all(|s| *s == GpuStatus::Healthy), "not healed: {:?}", gpus);
        prop_assert_eq!(link, LinkStatus::nominal());
        prop_assert_eq!(state.next_event_time(), None);
    }

    /// `advance` is idempotent at a fixed time and monotone in what it has
    /// applied: replaying the same prefix twice fires nothing new.
    #[test]
    fn advance_is_idempotent(schedule in schedule(), t in 0.0..1.5 * HORIZON) {
        let mut state = FaultState::new(schedule, GPUS).expect("in range");
        let fired = state.advance(t).len();
        prop_assert_eq!(state.advance(t).len(), 0, "replaying t fires nothing (first pass: {})", fired);
        let before = snapshot(&state);
        state.advance(t);
        prop_assert_eq!(snapshot(&state), before);
    }
}
