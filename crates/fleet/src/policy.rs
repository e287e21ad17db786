//! Global dispatch policies.
//!
//! The router sees, at every arrival, one [`Candidate`] per routable
//! replica: its queue depth, KV headroom, and the installed plan's
//! estimated latency. All policies are pure functions of the candidate
//! list (plus one `u64` of round-robin state), with explicit total-order
//! tie-breaking on replica id — routing is deterministic by construction.

use crate::slo::SloClass;

/// How arrivals are spread across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Cycle through routable replicas in id order.
    RoundRobin,
    /// Fewest outstanding requests (queued + in flight), ties to the
    /// lowest replica id.
    LeastOutstanding,
    /// Most unreserved KV-cache bytes on the bottleneck GPU, ties to the
    /// lowest replica id — keeps admission from stalling on a cache-full
    /// replica while another sits empty.
    KvHeadroom,
    /// SLO-aware: replicas whose plan latency fits the tenant's end-to-end
    /// target are preferred (least-outstanding among them); if none
    /// qualifies, the fastest replica takes it.
    SloAware,
}

impl DispatchPolicy {
    /// Stable lower-case name (metric keys, CLI args).
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round_robin",
            DispatchPolicy::LeastOutstanding => "least_outstanding",
            DispatchPolicy::KvHeadroom => "kv_headroom",
            DispatchPolicy::SloAware => "slo_aware",
        }
    }
}

/// One routable replica's dispatch signals at an arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Replica id.
    pub replica: usize,
    /// Requests queued or in flight on the replica.
    pub outstanding: usize,
    /// Unreserved KV-cache bytes on the replica's bottleneck GPU.
    pub headroom_bytes: u64,
    /// The replica plan's estimated per-request latency (seconds).
    pub plan_latency: f64,
}

/// The global router: one policy plus its (round-robin) state.
#[derive(Debug, Clone)]
pub struct Router {
    policy: DispatchPolicy,
    rr_next: u64,
}

impl Router {
    /// A router dispatching under `policy`.
    pub fn new(policy: DispatchPolicy) -> Self {
        Self { policy, rr_next: 0 }
    }

    /// The policy in force.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Picks the replica for a request of `class` among `candidates`
    /// (routable replicas in ascending id order). Returns `None` when no
    /// replica is routable.
    pub fn choose(&mut self, class: &SloClass, candidates: &[Candidate]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let chosen = match self.policy {
            DispatchPolicy::RoundRobin => {
                let idx = (self.rr_next % candidates.len() as u64) as usize;
                self.rr_next = self.rr_next.wrapping_add(1);
                candidates[idx].replica
            }
            DispatchPolicy::LeastOutstanding => least_outstanding(candidates.iter())?,
            DispatchPolicy::KvHeadroom => {
                let mut best = candidates.first()?;
                for c in &candidates[1..] {
                    if c.headroom_bytes > best.headroom_bytes {
                        best = c;
                    }
                }
                best.replica
            }
            DispatchPolicy::SloAware => {
                // A replica "qualifies" when its plan latency fits the
                // class's end-to-end budget; an unconstrained class
                // qualifies everyone.
                let fits = |c: &&Candidate| match class.targets.e2e {
                    Some(bound) => c.plan_latency <= bound.as_secs(),
                    None => true,
                };
                match least_outstanding(candidates.iter().filter(fits)) {
                    Some(replica) => replica,
                    // Nothing fits: damage control — the fastest replica
                    // (`min_by` keeps the first, lowest-id one on ties).
                    None => {
                        candidates
                            .iter()
                            .min_by(|a, b| a.plan_latency.total_cmp(&b.plan_latency))?
                            .replica
                    }
                }
            }
        };
        Some(chosen)
    }
}

/// Lowest `(outstanding, replica)` candidate: the first of the fewest
/// outstanding, since candidates come in ascending replica id.
fn least_outstanding<'a>(candidates: impl Iterator<Item = &'a Candidate>) -> Option<usize> {
    candidates.min_by_key(|c| c.outstanding).map(|c| c.replica)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exegpt_units::Secs;

    fn cands() -> Vec<Candidate> {
        vec![
            Candidate { replica: 0, outstanding: 5, headroom_bytes: 100, plan_latency: 4.0 },
            Candidate { replica: 1, outstanding: 2, headroom_bytes: 900, plan_latency: 9.0 },
            Candidate { replica: 2, outstanding: 2, headroom_bytes: 400, plan_latency: 1.5 },
        ]
    }

    #[test]
    fn round_robin_cycles_in_id_order() {
        let mut r = Router::new(DispatchPolicy::RoundRobin);
        let batch = SloClass::batch("b");
        let picks: Vec<_> = (0..6).filter_map(|_| r.choose(&batch, &cands())).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_outstanding_breaks_ties_on_id() {
        let mut r = Router::new(DispatchPolicy::LeastOutstanding);
        assert_eq!(r.choose(&SloClass::batch("b"), &cands()), Some(1));
    }

    #[test]
    fn kv_headroom_prefers_the_roomiest() {
        let mut r = Router::new(DispatchPolicy::KvHeadroom);
        assert_eq!(r.choose(&SloClass::batch("b"), &cands()), Some(1));
    }

    #[test]
    fn slo_aware_routes_tight_deadlines_to_fitting_replicas() {
        let mut r = Router::new(DispatchPolicy::SloAware);
        // Budget 2s: only replica 2 fits.
        let tight = SloClass::interactive("chat", Secs::new(2.0));
        assert_eq!(r.choose(&tight, &cands()), Some(2));
        // Budget 5s: replicas 0 and 2 fit; 2 has fewer outstanding.
        let mid = SloClass::interactive("qa", Secs::new(5.0));
        assert_eq!(r.choose(&mid, &cands()), Some(2));
        // Budget 1s: nothing fits; the fastest (2) takes it.
        let impossible = SloClass::interactive("rt", Secs::new(1.0));
        assert_eq!(r.choose(&impossible, &cands()), Some(2));
        // Unconstrained: plain least-outstanding (tie → lowest id).
        assert_eq!(r.choose(&SloClass::batch("b"), &cands()), Some(1));
    }

    #[test]
    fn empty_candidate_list_is_unroutable() {
        let mut r = Router::new(DispatchPolicy::SloAware);
        assert_eq!(r.choose(&SloClass::batch("b"), &[]), None);
    }
}
