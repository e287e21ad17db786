//! Property-based invariants of the KV-cache tracker: no leaks, no
//! double-accounting, capacity always respected, under arbitrary
//! admit/grow/release interleavings and all three disciplines.

use std::collections::{BTreeMap, BTreeSet};

use exegpt_runner::{KvSlot, KvTracker, ReservePolicy};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Admit { id: u64, input: usize, max_out: usize },
    Grow { id: u64, tokens: usize },
    Release { id: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..16, 1usize..200, 0usize..300).prop_map(|(id, input, max_out)| Op::Admit {
            id,
            input,
            max_out
        }),
        (0u64..16, 1usize..50).prop_map(|(id, tokens)| Op::Grow { id, tokens }),
        (0u64..16).prop_map(|id| Op::Release { id }),
    ]
}

fn arb_policy() -> impl Strategy<Value = ReservePolicy> {
    prop_oneof![
        Just(ReservePolicy::UpFront),
        Just(ReservePolicy::Incremental),
        Just(ReservePolicy::Paged { page_tokens: 16 }),
        Just(ReservePolicy::Paged { page_tokens: 1 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Capacity is never exceeded; releasing everything returns to zero;
    /// the peak is the running maximum. Ops name a query by id and reach
    /// it through the handle of its latest admission, which after its
    /// release must reach nothing.
    #[test]
    fn tracker_conserves_bytes(
        ops in prop::collection::vec(arb_op(), 1..120),
        policy in arb_policy(),
        capacity in 1_000u64..100_000,
    ) {
        let mut kv = KvTracker::new(1.0, capacity, policy);
        let mut handles: BTreeMap<u64, KvSlot> = BTreeMap::new();
        let mut live: BTreeSet<u64> = BTreeSet::new();
        let mut peak_seen = 0u64;
        for op in ops {
            match op {
                Op::Admit { id, input, max_out } => {
                    if !live.contains(&id) {
                        if let Some(slot) = kv.try_admit(id, input, max_out) {
                            live.insert(id);
                            handles.insert(id, slot);
                        }
                    }
                }
                Op::Grow { id, tokens } => {
                    if let Some(&slot) = handles.get(&id) {
                        let used = kv.used_bytes();
                        let grown = kv.grow_slot(slot, tokens);
                        prop_assert!(grown || kv.used_bytes() == used, "failed growth applied");
                        let released = !live.contains(&id);
                        prop_assert!(!released || kv.used_bytes() == used, "released handle grew");
                    }
                }
                Op::Release { id } => {
                    if let Some(&slot) = handles.get(&id) {
                        kv.release(slot);
                    }
                    live.remove(&id);
                }
            }
            prop_assert!(kv.used_bytes() <= capacity, "capacity exceeded");
            peak_seen = peak_seen.max(kv.used_bytes());
            prop_assert_eq!(kv.peak_bytes(), peak_seen);
            prop_assert_eq!(kv.resident(), live.len());
        }
        for id in live {
            kv.release(handles[&id]);
        }
        prop_assert_eq!(kv.used_bytes(), 0, "bytes leaked after releasing all");
    }

    /// Paged reservations are always at least the incremental ones and
    /// waste at most one page per resident query.
    #[test]
    fn paging_overhead_is_bounded(
        admissions in prop::collection::vec((1usize..300, 0usize..100), 1..32),
        page in 1usize..64,
    ) {
        let mut paged = KvTracker::new(1.0, u64::MAX >> 1, ReservePolicy::Paged { page_tokens: page });
        let mut incr = KvTracker::new(1.0, u64::MAX >> 1, ReservePolicy::Incremental);
        for (i, &(input, growth)) in admissions.iter().enumerate() {
            let id = i as u64;
            let paged_slot = paged.try_admit(id, input, 0);
            let incr_slot = incr.try_admit(id, input, 0);
            prop_assert!(paged_slot.is_some());
            prop_assert!(incr_slot.is_some());
            prop_assert!(paged_slot.is_some_and(|slot| paged.grow_slot(slot, growth)));
            prop_assert!(incr_slot.is_some_and(|slot| incr.grow_slot(slot, growth)));
        }
        let n = admissions.len() as u64;
        prop_assert!(paged.used_bytes() >= incr.used_bytes());
        prop_assert!(
            paged.used_bytes() <= incr.used_bytes() + n * page as u64,
            "paged {} vs incr {} with {} queries of page {page}",
            paged.used_bytes(),
            incr.used_bytes(),
            n
        );
    }
}
