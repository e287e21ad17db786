//! Property-based invariants of the §5.2 dynamic workload adjuster.

use std::cell::Cell;

use exegpt::DynamicAdjuster;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Selected indices are valid, unique, and sorted; something is always
    /// admitted from a non-empty queue.
    #[test]
    fn selection_is_well_formed(
        lens in prop::collection::vec(1usize..512, 0..128),
        b_e in 1usize..32,
        mean in 8.0f64..400.0,
        thr in 0.0f64..0.5,
        cur in 0usize..256,
        sched in 0usize..256,
    ) {
        let adj = DynamicAdjuster::new(b_e, mean, thr);
        let chosen = adj.select_batch(&lens, cur, sched);
        if lens.is_empty() {
            prop_assert!(chosen.is_empty());
        } else {
            prop_assert!(!chosen.is_empty(), "a non-empty queue must admit something");
        }
        for w in chosen.windows(2) {
            prop_assert!(w[0] < w[1], "indices sorted and unique");
        }
        for &i in &chosen {
            prop_assert!(i < lens.len());
        }
    }

    /// Selection through the length accessor equals selection over the
    /// slice, and reads only the queue prefix up to the lookahead window
    /// past the last chosen index.
    #[test]
    fn accessor_selection_matches_slice_and_reads_a_prefix(
        lens in prop::collection::vec(1usize..512, 0..400),
        b_e in 1usize..32,
        mean in 8.0f64..400.0,
        thr in 0.0f64..0.5,
        cur in 0usize..256,
        sched in 0usize..256,
    ) {
        let adj = DynamicAdjuster::new(b_e, mean, thr);
        let by_slice = adj.select_batch(&lens, cur, sched);
        let furthest = Cell::new(None::<usize>);
        let mut by_index = vec![usize::MAX; 3]; // stale contents are cleared
        adj.select_batch_by(
            lens.len(),
            |i| {
                furthest.set(furthest.get().max(Some(i)));
                lens[i]
            },
            cur,
            sched,
            &mut by_index,
        );
        prop_assert_eq!(&by_index, &by_slice);
        match (by_index.last(), furthest.get()) {
            (Some(&last), Some(read)) => prop_assert!(
                read <= last + DynamicAdjuster::LOOKAHEAD + 1,
                "read index {} past chosen {} + lookahead", read, last
            ),
            (None, read) => prop_assert_eq!(read, None, "an empty queue is never read"),
            (Some(_), None) => prop_assert!(false, "chose without reading"),
        }
    }

    /// With a rich queue of near-average queries, the admitted workload
    /// lands inside the threshold band around the (feedback-shifted) budget.
    #[test]
    fn workload_stays_in_band_for_rich_queues(
        b_e in 2usize..24,
        jitter in 0usize..16,
    ) {
        let mean = 100.0;
        let thr = 0.15;
        let adj = DynamicAdjuster::new(b_e, mean, thr);
        let lens: Vec<usize> = (0..256).map(|i| 92 + ((i + jitter) * 7) % 16).collect();
        let chosen = adj.select_batch(&lens, 0, 0);
        let sum: usize = chosen.iter().map(|&i| lens[i]).sum();
        let target = b_e as f64 * mean;
        prop_assert!(
            (sum as f64) >= target * (1.0 - thr) - 108.0,
            "undershoot: {sum} vs target {target}"
        );
        prop_assert!(
            (sum as f64) <= target * (1.0 + thr) + 108.0,
            "overshoot: {sum} vs target {target}"
        );
    }

    /// The decode-pool feedback never moves the budget outside the band:
    /// admission counts are bounded regardless of pool drift.
    #[test]
    fn feedback_is_band_limited(
        b_e in 2usize..24,
        cur in 0usize..10_000,
        sched in 0usize..10_000,
    ) {
        let adj = DynamicAdjuster::new(b_e, 100.0, 0.1);
        let lens = vec![100usize; 512];
        let n = adj.encoder_batch(&lens, cur, sched);
        // Band of +-10% around b_e * 100 tokens of 100-token queries.
        prop_assert!(n >= b_e.saturating_sub(b_e / 5 + 1));
        prop_assert!(n <= b_e + b_e / 5 + 1, "admitted {n} for b_e {b_e}");
    }
}

// Decoder-nudge path: the `scheduled − current` pool feedback that shifts
// the admission budget inside the threshold band.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A fuller decoder pool never admits more: admission is monotone
    /// non-increasing in the current pool size (uniform queues, so counts
    /// order the same way workloads do).
    #[test]
    fn nudge_is_monotone_in_pool_size(
        b_e in 2usize..24,
        sched in 1usize..512,
        cur_a in 0usize..512,
        cur_b in 0usize..512,
        len in 20usize..180,
    ) {
        let adj = DynamicAdjuster::new(b_e, 100.0, 0.2);
        let lens = vec![len; 1024];
        let (small, large) = if cur_a <= cur_b { (cur_a, cur_b) } else { (cur_b, cur_a) };
        let n_small = adj.encoder_batch(&lens, small, sched);
        let n_large = adj.encoder_batch(&lens, large, sched);
        prop_assert!(
            n_small >= n_large,
            "pool {small} admitted {n_small} < pool {large} admitted {n_large}"
        );
    }

    /// Extreme pool drift saturates the budget at the band edges: far
    /// behind schedule admits to the band's top, far ahead to its bottom,
    /// and a balanced pool sits in between. Fine-grained 10-token queries
    /// make the admitted workload track the budget within one query.
    #[test]
    fn nudge_saturates_at_band_edges(
        b_e in 4usize..24,
        extreme in 1_000usize..10_000,
        balanced in 0usize..64,
    ) {
        let adj = DynamicAdjuster::new(b_e, 100.0, 0.1);
        let lens = vec![10usize; 4096];
        let workload = |chosen: &[usize]| chosen.iter().map(|&i| lens[i] as f64).sum::<f64>();
        let target = 100.0 * b_e as f64;
        let behind = workload(&adj.select_batch(&lens, 0, extreme));
        let ahead = workload(&adj.select_batch(&lens, extreme, 0));
        let neutral = workload(&adj.select_batch(&lens, balanced, balanced));
        prop_assert!((behind - 1.1 * target).abs() <= 10.0, "behind {behind} vs hi {}", 1.1 * target);
        prop_assert!((ahead - 0.9 * target).abs() <= 10.0, "ahead {ahead} vs lo {}", 0.9 * target);
        prop_assert!(behind > neutral && neutral > ahead,
            "nudge direction: behind {behind} > neutral {neutral} > ahead {ahead}");
    }

    /// Closed-loop recovery: starting with a decoder pool well short of
    /// schedule and terminating a steady batch per phase, the nudge pulls
    /// the pool back to schedule and holds it in a bounded oscillation
    /// (the budget band limits the per-phase correction to about `B_E`).
    #[test]
    fn closed_loop_recovers_pool_after_early_terminations(
        b_e in 4usize..8,
        sched in 64usize..256,
        deficit in 16usize..64,
    ) {
        let adj = DynamicAdjuster::new(b_e, 100.0, 0.1);
        let lens = vec![10usize; 8192];
        let neutral = adj.encoder_batch(&lens, sched, sched);
        let mut pool = sched.saturating_sub(deficit);
        let slack = 2 * b_e;
        for phase in 0..100 {
            pool += adj.encoder_batch(&lens, pool, sched);
            pool -= neutral.min(pool);
            if phase >= 50 {
                prop_assert!(
                    pool + slack >= sched && pool <= sched + slack,
                    "phase {phase}: pool {pool} escaped schedule {sched} ± {slack}"
                );
            }
        }
    }
}
