//! Property-based invariants of the distribution substrate.

use exegpt_dist::{CompletionDist, LengthDist};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every constructible truncated normal is a proper distribution.
    #[test]
    fn truncated_normal_pmf_sums_to_one(
        mean in 1.0f64..1000.0,
        std in 0.0f64..500.0,
        max_len in 1usize..2048,
    ) {
        let d = LengthDist::truncated_normal(mean, std, max_len).expect("valid parameters");
        let total: f64 = (1..=max_len).map(|l| d.pmf(l)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "pmf sums to {total}");
        prop_assert!(d.pmf(0) == 0.0 && d.pmf(max_len + 1) == 0.0);
    }

    /// The CDF is monotone and the quantile is its generalized inverse.
    #[test]
    fn quantile_inverts_cdf(
        mean in 1.0f64..500.0,
        std in 0.1f64..200.0,
        max_len in 2usize..1024,
        p in 0.0f64..1.0,
    ) {
        let d = LengthDist::truncated_normal(mean, std, max_len).expect("valid parameters");
        let q = d.quantile(p);
        prop_assert!(q >= 1 && q <= max_len);
        prop_assert!(d.cdf(q) >= p - 1e-12);
        if q > 1 {
            prop_assert!(d.cdf(q - 1) < p + 1e-12);
        }
        // CDF monotone along the support.
        let mut prev = 0.0;
        for l in (1..=max_len).step_by((max_len / 16).max(1)) {
            let c = d.cdf(l);
            prop_assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    /// Empirical distributions reproduce their sample mean exactly.
    #[test]
    fn empirical_mean_matches_samples(samples in prop::collection::vec(1usize..512, 1..200)) {
        let d = LengthDist::empirical(&samples).expect("non-empty");
        let mean: f64 = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        prop_assert!((d.mean() - mean).abs() < 1e-9);
        prop_assert_eq!(d.max_len(), *samples.iter().max().expect("non-empty"));
    }

    /// P_D(U) is a sub-distribution whose mass equals the per-phase
    /// completion fraction, for any N_D and output distribution.
    #[test]
    fn completion_dist_is_valid(
        mean in 1.0f64..300.0,
        std in 0.1f64..150.0,
        max_len in 2usize..512,
        n_d in 1usize..256,
    ) {
        let out = LengthDist::truncated_normal(mean, std, max_len).expect("valid parameters");
        let c = CompletionDist::new(&out, n_d).expect("valid n_d");
        let total: f64 = (1..=n_d).map(|u| c.prob(u)).sum();
        prop_assert!((-1e-12..=1.0 + 1e-9).contains(&total), "mass {total}");
        prop_assert!((total - c.completion_fraction()).abs() < 1e-12);
        // Expected active pool is non-increasing within a phase.
        let mut prev = f64::INFINITY;
        for u in 1..=n_d.min(64) {
            let a = c.expected_active(1000, u);
            prop_assert!(a <= prev + 1e-9);
            prev = a;
        }
    }

    /// The steady-state pool sizing round-trips: expected completions of
    /// the derived pool refill the encoder batch.
    #[test]
    fn decode_batch_round_trips(
        mean in 2.0f64..300.0,
        std in 0.1f64..100.0,
        b_e in 1usize..128,
    ) {
        let max_len = (mean * 4.0) as usize + 8;
        let out = LengthDist::truncated_normal(mean, std, max_len).expect("valid parameters");
        let n_d = (mean / 2.0).ceil() as usize;
        let c = CompletionDist::new(&out, n_d).expect("valid n_d");
        if let Some(b_d) = c.decode_batch_for(b_e) {
            let refills = c.expected_completions(b_d);
            // Rounding b_d to whole queries perturbs the refill by at most
            // one query's worth of completion mass.
            prop_assert!(
                (refills - b_e as f64).abs() <= 1.0,
                "refills {refills} vs b_e {b_e}"
            );
        }
    }

    /// Sampling always lands in the support.
    #[test]
    fn samples_stay_in_support(
        mean in 1.0f64..200.0,
        std in 0.0f64..100.0,
        max_len in 1usize..512,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let d = LengthDist::truncated_normal(mean, std, max_len).expect("valid parameters");
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let s = d.sample(&mut rng);
            prop_assert!(s >= 1 && s <= max_len);
        }
    }

    /// On a CDF with plateaus (zero-mass lengths repeat a CDF value), the
    /// quantile is the smallest length whose CDF reaches `p`. Equal weights
    /// put CDF values next to the guide's bucket edges.
    #[test]
    fn quantile_is_the_first_length_reaching_p(
        weights in prop::collection::vec(
            prop_oneof![Just(0.0), Just(1.0), 0.0f64..10.0, 1e-300f64..1e-290],
            1..200,
        ),
        ps in prop::collection::vec(0.0f64..1.0, 16),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        check_quantile(&LengthDist::from_weights(weights).expect("valid weights"), &ps);
    }
}

/// Checks `quantile` against the smallest length whose CDF reaches `p`, at
/// every CDF value, every bucket edge `k / n` of the quantile's guide, the
/// float neighbours of both, 0, 1 and `ps`.
fn check_quantile(d: &LengthDist, ps: &[f64]) {
    let n = d.max_len();
    let cdf = (1..=n).map(|l| d.cdf(l));
    let edges = (0..n).map(|k| k as f64 / n as f64);
    let probes = cdf.chain(edges).flat_map(|c| [c.next_down(), c, c.next_up()]);
    for p in probes.chain(ps.iter().copied()).chain([0.0, -0.0, 1.0]) {
        let first = (1..=n).find(|&l| d.cdf(l) >= p.clamp(0.0, 1.0)).unwrap_or(n);
        assert_eq!(d.quantile(p), first, "p = {p} over {n} lengths");
    }
}

#[test]
fn quantile_is_exact_where_cdf_values_meet_bucket_edges() {
    // Equal weights accumulate to CDF values within rounding of the
    // guide's edges `k / n`, on either side of them.
    for n in 1..=300 {
        check_quantile(&LengthDist::from_weights(vec![1.0; n]).expect("valid weights"), &[]);
        let counts: Vec<usize> = (1..=n).flat_map(|l| [l, l, (l * 7) % n + 1]).collect();
        check_quantile(&LengthDist::empirical(&counts).expect("valid samples"), &[]);
    }
}
