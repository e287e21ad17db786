//! The event-driven decode pool against the per-token scan it replaces.
//!
//! The oracle is that scan: a `Vec` of queries, each advanced by one token
//! per iteration, finished ones leaving through `swap_remove`; KV growth
//! either per entry in arena order before the scan (RRA decode) or per
//! entry as the scan visits it (WAA rounds), clamping at capacity. Random
//! admissions, lengths, capacities and bytes per token — fractional ones
//! and runs that saturate the cache included — must give the same
//! completions, in the same order, the same mean context bit for bit, and
//! the same KV accounting after every iteration. Plan-swap migrations and
//! whole-pool drains ride along, and occasional long outputs make the
//! pool's timing wheel grow while members are filed on it.

use exegpt_runner::{DecodePool, GrowthOrder, KvSlot, KvTracker, ReservePolicy};
use exegpt_workload::{Request, TimedRequest};
use proptest::prelude::*;

/// One step of a run: the queries admitted before it, then what it does.
#[derive(Debug, Clone)]
struct Step {
    /// (input, output) lengths.
    admit: Vec<(usize, usize)>,
    action: Action,
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Advance,
    /// Move every member into a fresh tracker of this capacity.
    Migrate(u64),
    /// Drain the pool.
    Clear,
}

fn arb_step() -> impl Strategy<Value = Step> {
    // Mostly iterations; one step in twenty migrates, one drains.
    let action = (0usize..20, 100u64..4_000).prop_map(|(k, capacity)| match k {
        0 => Action::Migrate(capacity),
        1 => Action::Clear,
        _ => Action::Advance,
    });
    // Mostly short outputs, zero-length ones included; one in ten is long
    // enough to grow the timing wheel up to 1,024 buckets.
    let output =
        (0usize..10, 0usize..50, 50usize..1_000)
            .prop_map(|(k, short, long)| if k == 0 { long } else { short });
    (prop::collection::vec((1usize..40, output), 0..5), action)
        .prop_map(|(admit, action)| Step { admit, action })
}

fn arb_bytes_per_token() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1.0), Just(2.0), Just(7.0), Just(1.5), Just(0.7), Just(2.25)]
}

/// A query in the oracle's pool.
struct Active {
    req: Request,
    progress: usize,
    slot: KvSlot,
}

/// The replaced per-token scan.
struct Oracle {
    kv: KvTracker,
    pool: Vec<Active>,
}

impl Oracle {
    fn advance(&mut self, order: GrowthOrder, t: f64, done: &mut Vec<(u64, f64)>) {
        if order == GrowthOrder::Arena {
            let mut slots: Vec<KvSlot> = self.pool.iter().map(|a| a.slot).collect();
            slots.sort_unstable();
            for slot in slots {
                self.kv.grow_slot_or_clamp(slot, 1);
            }
        }
        let mut i = 0;
        while i < self.pool.len() {
            let a = &mut self.pool[i];
            a.progress += 1;
            if order == GrowthOrder::Pool {
                self.kv.grow_slot_or_clamp(a.slot, 1);
            }
            if a.progress >= a.req.output_len {
                let a = self.pool.swap_remove(i);
                self.kv.release(a.slot);
                done.push((a.req.id, t));
            } else {
                i += 1;
            }
        }
    }

    /// The f64 fold the replaced scan timed its iterations with.
    fn mean_context(&self) -> f64 {
        let sum: f64 = self.pool.iter().map(|a| (a.req.input_len + a.progress) as f64).sum();
        sum / self.pool.len() as f64
    }
}

fn assert_kv_eq(pool: &KvTracker, oracle: &KvTracker, step: usize) {
    assert_eq!(
        (pool.used_bytes(), pool.peak_bytes(), pool.clamped_tokens(), pool.resident()),
        (oracle.used_bytes(), oracle.peak_bytes(), oracle.clamped_tokens(), oracle.resident()),
        "kv (used, peak, clamped, resident) at step {step}"
    );
}

/// Runs `steps` through the pool and the oracle side by side and asserts
/// that they agree after every step.
fn check_against_the_scan(steps: &[Step], bpt: f64, capacity: u64, waa: bool) {
    let order = if waa { GrowthOrder::Pool } else { GrowthOrder::Arena };
    let mut kv = KvTracker::new(bpt, capacity, ReservePolicy::Incremental);
    let mut pool = DecodePool::default();
    let mut oracle =
        Oracle { kv: KvTracker::new(bpt, capacity, ReservePolicy::Incremental), pool: Vec::new() };
    let mut next_id = 0u64;
    let mut tokens = 0u64;
    let mut expected = Vec::new();
    for (n, step) in steps.iter().enumerate() {
        let t = n as f64 + 0.5;
        // Admit; under WAA the batch is resident but joins the pool
        // only after the round.
        let mut admitted = Vec::new();
        for &(input_len, output_len) in &step.admit {
            let request = Request { id: next_id, input_len, output_len };
            next_id += 1;
            let slot = kv.try_admit(request.id, input_len, 0);
            let oracle_slot = oracle.kv.try_admit(request.id, input_len, 0);
            assert_eq!(slot.is_some(), oracle_slot.is_some(), "admission at step {n}");
            if let (Some(slot), Some(oracle_slot)) = (slot, oracle_slot) {
                admitted.push((request, slot, oracle_slot));
            }
        }
        let join = |pool: &mut DecodePool,
                    kv: &mut KvTracker,
                    oracle: &mut Oracle,
                    admitted: &mut Vec<(Request, KvSlot, KvSlot)>| {
            for (request, slot, oracle_slot) in admitted.drain(..) {
                pool.push(kv, TimedRequest { request, arrival: 0.0 }, slot, t);
                oracle.pool.push(Active { req: request, progress: 0, slot: oracle_slot });
            }
        };
        if !waa {
            join(&mut pool, &mut kv, &mut oracle, &mut admitted);
        }
        match step.action {
            Action::Advance => {
                tokens += pool.len() as u64;
                let mut got = Vec::new();
                pool.advance(&mut kv, order, t, |f| got.push((f.req.id, t)));
                expected.clear();
                oracle.advance(order, t, &mut expected);
                assert_eq!(got, expected, "completions at step {n}");
            }
            Action::Migrate(capacity) => {
                let mut fresh = KvTracker::new(bpt, capacity, ReservePolicy::Incremental);
                let mut oracle_fresh = fresh.clone();
                pool.migrate(&mut fresh);
                for a in &mut oracle.pool {
                    a.slot = oracle_fresh.admit_unchecked(a.req.id, a.req.input_len + a.progress);
                }
                // Admitted but not pooled entries stay behind, as in a
                // plan swap (which only happens between rounds).
                admitted.clear();
                kv = fresh;
                oracle.kv = oracle_fresh;
            }
            Action::Clear => {
                let mut got = Vec::new();
                pool.clear(&mut kv, |r| got.push(r.request.id));
                let drained: Vec<Active> = oracle.pool.drain(..).collect();
                for a in &drained {
                    oracle.kv.release(a.slot);
                }
                let want: Vec<u64> = drained.iter().map(|a| a.req.id).collect();
                assert_eq!(got, want, "drain order at step {n}");
            }
        }
        join(&mut pool, &mut kv, &mut oracle, &mut admitted);
        assert_eq!(pool.len(), oracle.pool.len(), "pool size at step {n}");
        if !pool.is_empty() {
            let (got, want) = (pool.mean_context(), oracle.mean_context());
            assert_eq!(got.to_bits(), want.to_bits(), "mean context at step {n}");
        }
        assert_eq!(pool.tokens(), tokens, "tokens at step {n}");
        assert_kv_eq(&kv, &oracle.kv, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn pool_matches_the_per_token_scan(
        steps in prop::collection::vec(arb_step(), 1..90),
        bpt in arb_bytes_per_token(),
        capacity in 60u64..3_000,
        waa in any::<bool>(),
    ) {
        check_against_the_scan(&steps, bpt, capacity, waa);
    }
}

/// The timing wheel grows, with members filed on it, at three points: in
/// the middle of a run, right before a migration and right after a drain;
/// the long outputs then run to completion. Churn of short outputs comes
/// first, so finishing iterations pass the wheel's size and swap-removals
/// leave pool order unlike arena order. RRA joins a step's admissions
/// before its action and WAA after, so each point has an admission of
/// each kind: the one that joins next to the migration or drain grows the
/// wheel.
#[test]
fn the_wheel_grows_mid_run_before_a_migration_and_after_a_drain() {
    let step = |admit: &[(usize, usize)], action| Step { admit: admit.to_vec(), action };
    let churn = |steps: &mut Vec<Step>, count: usize| {
        for n in 0..count {
            steps.push(step(&[(5 + n % 4, n % 8), (9, (3 * n + 1) % 8)], Action::Advance));
        }
    };
    let mut steps = Vec::new();
    churn(&mut steps, 24);
    // Mid-run: 8 buckets grow to 128 under a dozen members.
    steps.push(step(&[(5, 100), (6, 0)], Action::Advance));
    churn(&mut steps, 10);
    // WAA joins the 200 after the advance and grows to 256 right before the
    // migration; RRA joins the 300 and grows to 512 there.
    steps.push(step(&[(3, 200), (8, 4)], Action::Advance));
    steps.push(step(&[(2, 300)], Action::Migrate(5_000)));
    churn(&mut steps, 10);
    // A drain, then iterations on the emptied wheel.
    steps.push(step(&[], Action::Clear));
    churn(&mut steps, 10);
    steps.push(step(&[], Action::Clear));
    // RRA joins the 1,000 right after the drain, WAA after one advance of
    // the empty pool: either way the emptied wheel grows to 1,024.
    steps.push(step(&[(6, 1_000), (7, 0), (5, 2)], Action::Advance));
    for n in 0..1_010 {
        let admit: &[(usize, usize)] = if n % 50 == 0 { &[(4, 17), (3, 0)] } else { &[] };
        steps.push(step(admit, Action::Advance));
    }
    for (bpt, capacity) in [(1.0, 100_000), (2.0, 1_500), (1.5, 100_000)] {
        for waa in [false, true] {
            check_against_the_scan(&steps, bpt, capacity, waa);
        }
    }
}

/// The clamp path is exercised: the sampled runs above saturate the cache.
#[test]
fn saturating_run_clamps_and_still_matches() {
    let mut kv = KvTracker::new(2.0, 200, ReservePolicy::Incremental);
    let mut pool = DecodePool::default();
    let mut oracle =
        Oracle { kv: KvTracker::new(2.0, 200, ReservePolicy::Incremental), pool: Vec::new() };
    for id in 0..5 {
        let request = Request { id, input_len: 15, output_len: 20 + 3 * id as usize };
        let slot = kv.try_admit(id, 15, 0).expect("fits");
        let oracle_slot = oracle.kv.try_admit(id, 15, 0).expect("fits");
        pool.push(&mut kv, TimedRequest { request, arrival: 0.0 }, slot, 0.0);
        oracle.pool.push(Active { req: request, progress: 0, slot: oracle_slot });
    }
    let mut expected = Vec::new();
    for i in 0..40 {
        let t = f64::from(i);
        let mut got = Vec::new();
        pool.advance(&mut kv, GrowthOrder::Pool, t, |f| got.push((f.req.id, t)));
        expected.clear();
        oracle.advance(GrowthOrder::Pool, t, &mut expected);
        assert_eq!(got, expected);
        assert_kv_eq(&kv, &oracle.kv, i as usize);
    }
    assert!(kv.clamped_tokens() > 0);
    assert_eq!(kv.used_bytes(), 0);
}
