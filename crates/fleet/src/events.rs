//! Structured event log of a fleet run.
//!
//! Mirrors the per-replica [`exegpt_serve::EventLog`]: every routing and
//! lifecycle decision the fabric makes is appended as a typed event whose
//! JSONL rendering is byte-deterministic for a fixed trace and seed — the
//! fleet determinism test compares this rendering across reruns.

use serde::Serialize;

/// One fleet-fabric event, stamped with virtual time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FleetEvent {
    /// An arrival was routed to a replica.
    Dispatch {
        /// Arrival time.
        t: f64,
        /// Request id.
        id: u64,
        /// Originating tenant.
        tenant: u32,
        /// Chosen replica.
        replica: usize,
        /// The replica's outstanding requests at dispatch.
        outstanding: usize,
        /// The replica's unreserved KV bytes at dispatch.
        headroom_bytes: u64,
    },
    /// An arrival found no routable replica.
    Reject {
        /// Arrival time.
        t: f64,
        /// Request id.
        id: u64,
        /// Originating tenant.
        tenant: u32,
    },
    /// A request from a lost replica was re-dispatched.
    Reroute {
        /// Reroute time (the loss time).
        t: f64,
        /// Request id.
        id: u64,
        /// The lost replica.
        from: usize,
        /// The surviving replica it moved to.
        to: usize,
    },
    /// A replica began deploying (charged its DRAM load time before it
    /// becomes routable).
    ReplicaDeploying {
        /// Deploy start.
        t: f64,
        /// Replica id.
        replica: usize,
        /// When it becomes routable.
        ready_at: f64,
    },
    /// A deployed replica became routable.
    ReplicaReady {
        /// Ready time.
        t: f64,
        /// Replica id.
        replica: usize,
    },
    /// A replica stopped receiving dispatches and is finishing its queue.
    ReplicaDraining {
        /// Drain start.
        t: f64,
        /// Replica id.
        replica: usize,
    },
    /// A drained replica retired.
    ReplicaDown {
        /// Retire time.
        t: f64,
        /// Replica id.
        replica: usize,
    },
    /// A replica was lost; its queued and in-flight work was rerouted.
    ReplicaLost {
        /// Loss time.
        t: f64,
        /// Replica id.
        replica: usize,
        /// Requests rerouted onto survivors.
        rerouted: usize,
    },
}

// `Dispatch`, one per routed arrival, sets the slot size; the guard catches
// a variant that widens every slot of the log.
const _: () = assert!(
    std::mem::size_of::<FleetEvent>() <= 48,
    "FleetEvent must fit in 48 bytes, its size with Dispatch's fields"
);

/// Append-only fleet event log.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FleetEventLog {
    events: Vec<FleetEvent>,
}

impl FleetEventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: FleetEvent) {
        self.events.push(event);
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[FleetEvent] {
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

    /// Renders the log as JSON Lines (one event per line), byte-
    /// deterministic for a deterministic run.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            #[expect(
                clippy::expect_used,
                reason = "FleetEvent is a plain data struct; serialization cannot fail"
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
        let mut log = FleetEventLog::new();
        log.push(FleetEvent::Dispatch {
            t: 0.5,
            id: 1,
            tenant: 0,
            replica: 2,
            outstanding: 3,
            headroom_bytes: 1024,
        });
        log.push(FleetEvent::ReplicaLost { t: 9.0, replica: 2, rerouted: 4 });
        let a = log.to_jsonl();
        assert_eq!(a, log.to_jsonl());
        assert_eq!(a.lines().count(), 2);
        assert!(a.starts_with("{\"Dispatch\""));
    }
}
