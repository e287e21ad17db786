//! Structured event log of a serving run.
//!
//! Every externally observable action of the loop — arrivals, phases,
//! completions, drift checks, reschedules, plan swaps — is appended as a
//! typed event. The JSONL rendering is byte-deterministic for a fixed seed
//! (virtual time only, map-free payloads, stable float formatting), which
//! is what the determinism acceptance test compares.

use std::fmt;

use serde::{Serialize, Value};

/// The text an event carries: a schedule description, a replan reason, a
/// fault description or an error message. One thin pointer — 8 bytes,
/// where a `String` takes 24 and a `Box<str>` 16 — so the variants with
/// two text fields fit the 40-byte rule of [`Event`]. It renders, in JSON
/// and `Debug` alike, as the string it holds.
#[derive(Clone, PartialEq)]
pub struct Label(Box<Box<str>>);

impl Label {
    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Self(Box::new(s.into_boxed_str()))
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Self(Box::new(s.into()))
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Serialize for Label {
    fn to_value(&self) -> Value {
        self.as_str().to_value()
    }
}

/// One serving-loop event, stamped with virtual time.
///
/// Every text field is a [`Label`], so no variant needs more than 32 bytes
/// of payload and the whole event fits in 40 (see the assert below): the
/// per-request variants that make up nearly all of a log are that size
/// anyway, and a `String` in a rare variant would widen every slot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Event {
    /// A request entered the admission queue.
    Arrival {
        /// Arrival time.
        t: f64,
        /// Request id.
        id: u64,
        /// Input tokens.
        input_len: usize,
        /// Output tokens (enforced).
        output_len: usize,
    },
    /// Nothing in flight and nothing arrived: the loop jumped to the next
    /// arrival.
    Idle {
        /// When the server went idle.
        from: f64,
        /// Next arrival it woke at.
        until: f64,
    },
    /// An RRA encoding phase.
    Encode {
        /// Phase start.
        t_start: f64,
        /// Phase end.
        t_end: f64,
        /// Queries admitted into the pipeline.
        admitted: usize,
        /// Queue depth after admission.
        queue_depth: usize,
    },
    /// An RRA decoding phase (up to `N_D` iterations).
    Decode {
        /// Phase start.
        t_start: f64,
        /// Phase end.
        t_end: f64,
        /// Iterations executed.
        iters: usize,
        /// Queries completed during the phase.
        completed: usize,
    },
    /// One WAA coupled round (encode ∥ decode ∥ KV handover).
    Round {
        /// Round start.
        t_start: f64,
        /// Round end.
        t_end: f64,
        /// Queries admitted to the encoder group.
        admitted: usize,
        /// Decoder-pool size during the round.
        pool: usize,
    },
    /// A request finished all its output tokens.
    Completion {
        /// Completion time.
        t: f64,
        /// Request id.
        id: u64,
        /// Time to first token (from arrival).
        ttft: f64,
        /// End-to-end latency (from arrival).
        e2e: f64,
        /// Whether any SLO target was violated.
        violated: bool,
    },
    /// The drift detector compared its window to the scheduled
    /// distribution.
    DriftCheck {
        /// Check time.
        t: f64,
        /// Observed window mean output length.
        window_mean: f64,
        /// Output mean the current schedule was optimized for.
        scheduled_mean: f64,
        /// Relative shift `|window − scheduled| / scheduled`.
        rel_shift: f64,
        /// Whether drift was declared (threshold held for enough
        /// consecutive checks).
        drifted: bool,
    },
    /// Drift triggered a live reschedule on the warm engine.
    Reschedule {
        /// Decision time.
        t: f64,
        /// Schedule being replaced.
        from: Label,
        /// Schedule chosen for the refitted workload.
        to: Label,
        /// Refitted output-distribution mean handed to the scheduler.
        refit_mean: f64,
    },
    /// A reschedule attempt found no feasible schedule; serving continues
    /// on the old plan.
    RescheduleFailed {
        /// Decision time.
        t: f64,
        /// Scheduler error.
        why: Label,
    },
    /// The new plan was installed at a phase boundary.
    PlanSwap {
        /// Swap time (after paying `cost`).
        t: f64,
        /// Virtual seconds spent redeploying (0 for compatible plans).
        cost: f64,
        /// In-flight queries whose KV entries migrated to the new plan.
        migrated: usize,
    },
    /// An injected fault event became active (stamped with its scheduled
    /// activation time, which may precede the phase boundary that logs it).
    Fault {
        /// Scheduled activation time.
        t: f64,
        /// Human-readable description of the fault.
        desc: Label,
    },
    /// A device failure matured through the heartbeat timeout; the failed
    /// device is removed from the topology and in-flight work is aborted
    /// into the retry queue.
    FaultDetected {
        /// Detection time (failure activation + detection delay, or the
        /// phase boundary that noticed it, whichever is later).
        t: f64,
        /// The failed device.
        gpu: usize,
        /// In-flight queries aborted for retry.
        aborted: usize,
    },
    /// Observed phase timings confirmed a straggling device.
    StragglerDetected {
        /// Confirmation time.
        t: f64,
        /// The straggling device.
        gpu: usize,
        /// Its injected slowdown factor.
        factor: f64,
        /// Whether the policy evicts it from the topology (vs tolerating
        /// the dilation).
        evicted: bool,
    },
    /// An aborted request was queued for retry with exponential backoff.
    RequestRetry {
        /// Abort time.
        t: f64,
        /// Request id.
        id: u64,
        /// Retry attempt number (1 = first retry).
        attempt: usize,
        /// Virtual time at which the request re-enters admission.
        eligible_at: f64,
    },
    /// An aborted request exhausted its retry budget and was dropped.
    RequestLost {
        /// Drop time.
        t: f64,
        /// Request id.
        id: u64,
        /// Abort count at the drop.
        attempts: usize,
    },
    /// A fault-driven replan chose a plan for the changed topology.
    Replan {
        /// Decision time.
        t: f64,
        /// Why: `failover` (devices lost) or `recovery` (devices back).
        reason: Label,
        /// Devices in the new topology.
        gpus: usize,
        /// Schedule chosen for it.
        to: Label,
        /// Whether the pre-fault plan was reinstalled verbatim (full
        /// recovery with no interleaved workload refit).
        restored: bool,
    },
    /// A fault-driven replan found no feasible schedule.
    ReplanFailed {
        /// Decision time.
        t: f64,
        /// Scheduler error.
        why: Label,
    },
}

const _: () =
    assert!(std::mem::size_of::<Event>() <= 40, "Event must fit in 40 bytes (the 40-byte rule)");

/// Append-only event log.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the log as JSON Lines (one event per line). Deterministic
    /// for a deterministic run; the acceptance test compares runs
    /// byte-for-byte on this output.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            #[expect(
                clippy::expect_used,
                reason = "Event is a plain data struct; serialization cannot fail"
            )]
            out.push_str(&serde_json::to_string(e).expect("events serialize"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_is_one_line_per_event_and_stable() {
        let mut log = EventLog::new();
        log.push(Event::Arrival { t: 0.25, id: 1, input_len: 128, output_len: 64 });
        log.push(Event::Idle { from: 0.25, until: 1.5 });
        let a = log.to_jsonl();
        let b = log.to_jsonl();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 2);
        assert!(a.lines().next().unwrap().contains("Arrival"));
    }

    const TEXTS: [&str; 6] = [
        "",
        "RRA(B_E=12, N_D=3)",
        "a \"quoted\" \\ path",
        "détaché → ×2 «µ»",
        "tab\tnew\nline\u{1}",
        "failover",
    ];

    #[test]
    fn a_label_renders_as_the_string_it_holds() {
        for s in TEXTS {
            let label = Label::from(s);
            assert_eq!(
                serde_json::to_string(&label).unwrap(),
                serde_json::to_string(&s.to_string()).unwrap()
            );
            assert_eq!(format!("{label:?}"), format!("{:?}", s.to_string()));
        }
    }

    #[test]
    fn a_label_converts_and_compares_like_its_text() {
        for s in TEXTS {
            let owned = Label::from(s.to_string());
            let borrowed = Label::from(s);
            assert_eq!(owned, borrowed);
            assert_eq!(owned.as_str(), s);
            assert!(owned == *s);
        }
        let failover = Label::from("failover");
        assert_ne!(failover, Label::from("recovery"));
        assert!(failover != *"recovery");
    }
}
