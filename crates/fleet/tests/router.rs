//! The router against the collect-then-pick dispatch it replaces.
//!
//! The oracle is the old `Router::choose`: SLO-aware dispatch collects the
//! qualifying candidates into a `Vec` and takes the least-outstanding one,
//! falling back to the fastest plan when nothing qualifies. Over random
//! candidate sets (ties in every signal included) and random SLO classes,
//! every policy must pick the same replica, call after call, so the
//! round-robin cursor is covered too.

use exegpt_fleet::{Candidate, DispatchPolicy, Router, SloClass};
use exegpt_units::Secs;
use proptest::prelude::*;

/// The replaced dispatch: one policy plus a round-robin cursor.
struct Oracle {
    policy: DispatchPolicy,
    rr_next: u64,
}

impl Oracle {
    fn choose(&mut self, class: &SloClass, candidates: &[Candidate]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let chosen = match self.policy {
            DispatchPolicy::RoundRobin => {
                let idx = (self.rr_next % candidates.len() as u64) as usize;
                self.rr_next = self.rr_next.wrapping_add(1);
                candidates[idx].replica
            }
            DispatchPolicy::LeastOutstanding => least_outstanding(candidates)?,
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
                let fits = |c: &Candidate| match class.targets.e2e {
                    Some(bound) => c.plan_latency <= bound.as_secs(),
                    None => true,
                };
                let qualified: Vec<Candidate> = candidates.iter().copied().filter(fits).collect();
                if qualified.is_empty() {
                    let mut best = candidates.first()?;
                    for c in &candidates[1..] {
                        if c.plan_latency.total_cmp(&best.plan_latency).is_lt() {
                            best = c;
                        }
                    }
                    best.replica
                } else {
                    least_outstanding(&qualified)?
                }
            }
        };
        Some(chosen)
    }
}

fn least_outstanding(candidates: &[Candidate]) -> Option<usize> {
    let mut best = candidates.first()?;
    for c in &candidates[1..] {
        if c.outstanding < best.outstanding {
            best = c;
        }
    }
    Some(best.replica)
}

/// Plan latencies and SLO bounds drawn from a few shared values (so a plan
/// sits exactly on a bound) or from a range.
fn arb_secs() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1.0), Just(2.0), Just(4.0), Just(9.0), 0.5f64..10.0]
}

/// Candidates over replica ids 0..8, a random subset in ascending id
/// order, with narrow signal ranges so ties are common.
fn arb_candidates() -> impl Strategy<Value = Vec<Candidate>> {
    prop::collection::vec((any::<bool>(), 0usize..4, 0u64..4, arb_secs()), 8).prop_map(|slots| {
        slots
            .into_iter()
            .enumerate()
            .filter(|(_, (routable, ..))| *routable)
            .map(|(replica, (_, outstanding, headroom_bytes, plan_latency))| Candidate {
                replica,
                outstanding,
                headroom_bytes,
                plan_latency,
            })
            .collect()
    })
}

/// An unconstrained class, or an interactive one with a random bound.
fn arb_class() -> impl Strategy<Value = SloClass> {
    (any::<bool>(), arb_secs()).prop_map(|(batch, bound)| {
        if batch {
            SloClass::batch("batch")
        } else {
            SloClass::interactive("interactive", Secs::new(bound))
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn router_matches_collect_then_pick(
        calls in prop::collection::vec((arb_class(), arb_candidates()), 1..24),
    ) {
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastOutstanding,
            DispatchPolicy::KvHeadroom,
            DispatchPolicy::SloAware,
        ] {
            let mut router = Router::new(policy);
            let mut oracle = Oracle { policy, rr_next: 0 };
            for (n, (class, cands)) in calls.iter().enumerate() {
                prop_assert_eq!(
                    router.choose(class, cands),
                    oracle.choose(class, cands),
                    "{} call {}: class {:?} over {:?}",
                    policy.name(),
                    n,
                    class,
                    cands
                );
            }
        }
    }
}
