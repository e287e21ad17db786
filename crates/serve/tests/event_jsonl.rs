//! Byte-for-byte lock on the event log's JSONL rendering.
//!
//! One event of every `Event` variant goes into an `EventLog`, with
//! non-round floats, both booleans, and text holding a quote, a backslash
//! and non-ASCII characters. `to_jsonl()` must equal the literal below:
//! variant names, field names and order, float formatting and string
//! escapes. The scenario goldens only see the variants the shipped
//! scenarios emit; this covers the rest too (`RescheduleFailed`,
//! `ReplanFailed`, `RequestLost`, ...). Every text field is built with
//! `.into()`, so the test holds whatever text type the fields use.

use exegpt_serve::{Event, EventLog};

const EXPECTED: &str = r#"{"Arrival":{"t":0.1,"id":7,"input_len":128,"output_len":63}}
{"Idle":{"from":0.30000000000000004,"until":1.2345678901234567}}
{"Encode":{"t_start":1.2345678901234567,"t_end":2.718281828459045,"admitted":12,"queue_depth":5}}
{"Decode":{"t_start":2.718281828459045,"t_end":3.141592653589793,"iters":17,"completed":3}}
{"Round":{"t_start":3.141592653589793,"t_end":4.669201609102991,"admitted":9,"pool":41}}
{"Completion":{"t":4.669201609102991,"id":7,"ttft":0.0625,"e2e":4.569201609102992,"violated":false}}
{"DriftCheck":{"t":5.5,"window_mean":212.33333333333334,"scheduled_mean":180.1,"rel_shift":0.1789746437164539,"drifted":true}}
{"Reschedule":{"t":6.25,"from":"RRA(B_E=12, N_D=3) \"tp\" ×2","to":"WAA-C(B_E=8, B_m=4) → 3/1","refit_mean":212.33333333333334}}
{"RescheduleFailed":{"t":6.5,"why":"no feasible schedule under \"bound\" ≤ 9.9 s"}}
{"PlanSwap":{"t":7.123456789,"cost":0.75,"migrated":4}}
{"Fault":{"t":8.125,"desc":"gpu 2 fails \\ détaché"}}
{"FaultDetected":{"t":8.625,"gpu":2,"aborted":6}}
{"StragglerDetected":{"t":9.1,"gpu":1,"factor":2.5,"evicted":false}}
{"RequestRetry":{"t":9.2,"id":11,"attempt":1,"eligible_at":9.45}}
{"RequestLost":{"t":9.3,"id":12,"attempts":4}}
{"Replan":{"t":9.4,"reason":"failover","gpus":3,"to":"RRA(B_E=6, N_D=2) «3 gpus»","restored":true}}
{"ReplanFailed":{"t":9.5,"why":"out of memory: \"kv\" needs 1.5 GiB µ"}}
"#;

fn every_variant() -> Vec<Event> {
    vec![
        Event::Arrival { t: 0.1, id: 7, input_len: 128, output_len: 63 },
        Event::Idle { from: 0.1 + 0.2, until: 1.234_567_890_123_456_7 },
        Event::Encode {
            t_start: 1.234_567_890_123_456_7,
            t_end: std::f64::consts::E,
            admitted: 12,
            queue_depth: 5,
        },
        Event::Decode {
            t_start: std::f64::consts::E,
            t_end: std::f64::consts::PI,
            iters: 17,
            completed: 3,
        },
        Event::Round {
            t_start: std::f64::consts::PI,
            t_end: 4.669_201_609_102_991,
            admitted: 9,
            pool: 41,
        },
        Event::Completion {
            t: 4.669_201_609_102_991,
            id: 7,
            ttft: 0.0625,
            e2e: 4.669_201_609_102_991 - 0.1,
            violated: false,
        },
        Event::DriftCheck {
            t: 5.5,
            window_mean: 637.0 / 3.0,
            scheduled_mean: 180.1,
            rel_shift: (637.0 / 3.0 - 180.1) / 180.1,
            drifted: true,
        },
        Event::Reschedule {
            t: 6.25,
            from: "RRA(B_E=12, N_D=3) \"tp\" ×2".into(),
            to: "WAA-C(B_E=8, B_m=4) → 3/1".into(),
            refit_mean: 637.0 / 3.0,
        },
        Event::RescheduleFailed {
            t: 6.5,
            why: "no feasible schedule under \"bound\" ≤ 9.9 s".into(),
        },
        Event::PlanSwap { t: 7.123_456_789, cost: 0.75, migrated: 4 },
        Event::Fault { t: 8.125, desc: "gpu 2 fails \\ détaché".into() },
        Event::FaultDetected { t: 8.625, gpu: 2, aborted: 6 },
        Event::StragglerDetected { t: 9.1, gpu: 1, factor: 2.5, evicted: false },
        Event::RequestRetry { t: 9.2, id: 11, attempt: 1, eligible_at: 9.45 },
        Event::RequestLost { t: 9.3, id: 12, attempts: 4 },
        Event::Replan {
            t: 9.4,
            reason: "failover".into(),
            gpus: 3,
            to: "RRA(B_E=6, N_D=2) «3 gpus»".into(),
            restored: true,
        },
        Event::ReplanFailed { t: 9.5, why: "out of memory: \"kv\" needs 1.5 GiB µ".into() },
    ]
}

#[test]
fn every_variant_renders_to_the_pinned_jsonl() {
    let mut log = EventLog::new();
    for e in every_variant() {
        log.push(e);
    }
    assert_eq!(log.len(), 17, "one event per variant");
    assert_eq!(log.to_jsonl(), EXPECTED);
}
