//! The one-pass completion analysis against the distribution it stands in
//! for: `CompletionSeries::new` must equal `CompletionDist::new` followed by
//! `completion_fraction` and `survival_series`, bit for bit, and both must
//! put each length's mass where the paper's conditional form does, checked
//! against a per-length `div_ceil`/`%` reference.

use exegpt_dist::{CompletionDist, CompletionSeries, LengthDist};
use proptest::prelude::*;

/// `P_D(U)` straight from the definition: a length `S <= N_D` completes at
/// `U = S`; a longer one spans `ceil(S / N_D)` phases and completes at
/// `U = 1 + (S - 1) mod N_D` with probability `1 / ceil(S / N_D)`.
fn reference_probs(output: &LengthDist, n_d: usize) -> Vec<f64> {
    let mut probs = vec![0.0; n_d];
    for (s, p_s) in output.iter() {
        if s <= n_d {
            probs[s - 1] += p_s;
        } else {
            let phases = s.div_ceil(n_d) as f64;
            probs[(s - 1) % n_d] += p_s / phases;
        }
    }
    probs
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Asserts every identity for one `(output, n_d)`.
fn check(output: &LengthDist, n_d: usize) {
    let dist = CompletionDist::new(output, n_d).expect("n_d >= 1");
    let series = CompletionSeries::new(output, n_d).expect("n_d >= 1");
    let probs: Vec<f64> = (1..=n_d).map(|u| dist.prob(u)).collect();
    prop_assert_eq!(bits(&probs), bits(&reference_probs(output, n_d)), "P_D(U), n_d={}", n_d);
    prop_assert_eq!(series.fraction.to_bits(), dist.completion_fraction().to_bits());
    prop_assert_eq!(bits(&series.survival), bits(&dist.survival_series()), "n_d={}", n_d);
}

/// Weights with zero entries (about one length in three carries no mass)
/// and tiny ones; the first length carries mass if nothing else does.
fn weights() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(prop_oneof![Just(0.0), 0.0f64..1.0, 1e-300f64..1e-280], 1..300).prop_map(
        |mut w| {
            if w.iter().all(|&x| x <= 0.0) {
                w[0] = 1.0;
            }
            w
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_series_is_the_distribution_bit_for_bit(w in weights(), n_d in 1usize..400) {
        let output = LengthDist::from_weights(w).expect("some mass");
        let max_len = output.max_len();
        // N_D = 1, = the longest output, past it, and one in between.
        for n_d in [1, max_len, max_len + 1, max_len + n_d, n_d.min(max_len)] {
            check(&output, n_d);
        }
    }

    #[test]
    fn one_pass_series_matches_on_normal_outputs(
        mean in 1.0f64..300.0,
        std in 0.1f64..150.0,
        max_len in 1usize..512,
        n_d in 1usize..600,
    ) {
        let output = LengthDist::truncated_normal(mean, std, max_len).expect("valid parameters");
        check(&output, n_d);
    }
}

#[test]
fn point_masses_and_gapped_samples() {
    for (len, max_len) in [(1, 1), (4, 8), (10, 16), (16, 16)] {
        let output = LengthDist::point_mass(len, max_len).expect("valid");
        for n_d in 1..=max_len + 2 {
            check(&output, n_d);
        }
    }
    let gapped = LengthDist::empirical(&[3, 3, 9, 40, 41, 97]).expect("valid");
    for n_d in [1, 2, 3, 8, 40, 97, 200] {
        check(&gapped, n_d);
    }
}

#[test]
fn zero_n_d_is_rejected_by_both() {
    let output = LengthDist::point_mass(4, 8).expect("valid");
    assert!(CompletionSeries::new(&output, 0).is_err());
    assert!(CompletionDist::new(&output, 0).is_err());
}
