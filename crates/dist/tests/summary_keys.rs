//! The sample summaries (`summary`, `summary_owned`, `percentile`,
//! `pctl99_half_range` and the merged `SortedSample`), bit for bit,
//! against a comparator reference.
//!
//! The reference sorts a copy with `sort_unstable_by(f64::total_cmp)` and
//! reads the nearest-rank percentiles, the largest sample and the mean
//! (the sum of the ascending samples over their count) from it. Samples
//! mix the values a total order has to place: both zeros, both
//! infinities, NaNs of both signs with several payloads, subnormals, long
//! runs of duplicates and integer-valued floats (such as a dispatch
//! queue's outstanding count). Where a summed mean or a half-range is
//! NaN, only its NaN-ness is compared (see [`arithmetic_bits`]).

use exegpt_dist::stats::{self, SortedSample, Summary};
use proptest::prelude::*;

/// A sorted copy of `xs` under the comparator.
fn reference_sorted(xs: &[f64]) -> Vec<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    sorted
}

/// The nearest-rank `p`-th percentile of an ascending sample.
fn reference_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).copied()
}

fn reference_summary(xs: &[f64]) -> Option<Summary> {
    let sorted = reference_sorted(xs);
    let max = *sorted.last()?;
    let pick = |p| reference_rank(&sorted, p).unwrap_or(max);
    Some(Summary {
        count: sorted.len(),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50: pick(0.50),
        p95: pick(0.95),
        p99: pick(0.99),
        max,
    })
}

/// The bits of an arithmetic result, with every NaN as one. Rust leaves
/// the sign and payload of a NaN that arithmetic returns unspecified (an
/// optimized `a + b` of two NaNs may return either one), so two sums of
/// the same ascending samples agree bit for bit only where they are not
/// NaN. Selected samples (percentiles, max) keep every bit, NaNs
/// included.
fn arithmetic_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// Every field of a summary as bits, so NaNs and signed zeros compare.
fn bits(s: Option<Summary>) -> Option<[u64; 6]> {
    s.map(|s| {
        let count = u64::try_from(s.count).expect("fits");
        [
            count,
            arithmetic_bits(s.mean),
            s.p50.to_bits(),
            s.p95.to_bits(),
            s.p99.to_bits(),
            s.max.to_bits(),
        ]
    })
}

/// A NaN with the given sign and payload (the payload's low 51 bits, with
/// the quiet bit set or, for a nonzero payload, clear).
fn nan(negative: bool, quiet: bool, payload: u64) -> f64 {
    let payload = payload & ((1 << 51) - 1);
    let payload = if quiet { payload | 1 << 51 } else { payload.max(1) };
    f64::from_bits(u64::from(negative) << 63 | 0x7ff0_0000_0000_0000 | payload)
}

/// One sample value of the kinds listed in the module doc.
fn arb_value() -> impl Strategy<Value = f64> {
    let special = prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE),
        Just(f64::MAX),
        Just(f64::MIN),
    ];
    let payload = prop_oneof![Just(0u64), Just(1), Just(0x5a5a), any::<u64>()];
    prop_oneof![
        special,
        (any::<bool>(), any::<bool>(), payload).prop_map(|(neg, quiet, p)| nan(neg, quiet, p)),
        (any::<bool>(), 1u64..1 << 52)
            .prop_map(|(neg, m)| f64::from_bits(u64::from(neg) << 63 | m)),
        (0u32..64).prop_map(f64::from),
        (0u32..64).prop_map(f64::from),
        -1e3f64..1e3,
        -1e3f64..1e3,
        (0.0f64..1.0).prop_map(|u| -(1.0 - u).ln() * 0.25),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

/// Samples of 0 to 4,096 values, built from runs of one value: most runs
/// are single values, some are long runs of duplicates.
fn arb_samples() -> impl Strategy<Value = Vec<f64>> {
    let run = prop_oneof![Just(1usize), Just(1), Just(1), 2usize..16, 16usize..512];
    (prop::collection::vec((arb_value(), run), 0..96), 0usize..=4_096).prop_map(|(runs, len)| {
        let mut xs: Vec<f64> =
            runs.into_iter().flat_map(|(x, n)| std::iter::repeat_n(x, n)).collect();
        xs.truncate(len);
        xs
    })
}

/// Percentile levels: the ones the reports read, the ends, and levels
/// outside `[0, 1]`, which clamp.
fn arb_p() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(0.01),
        Just(0.5),
        Just(0.95),
        Just(0.99),
        Just(0.995),
        Just(1.0),
        -0.5f64..1.5,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn summary_matches_the_comparator_sort(xs in arb_samples()) {
        let want = bits(reference_summary(&xs));
        prop_assert_eq!(bits(stats::summary(&xs)), want);
        prop_assert_eq!(bits(stats::summary_owned(xs)), want);
    }

    /// The sample split at up to four cut points, some of them equal (an
    /// empty part) or at either end: merging the parts' sorted samples
    /// gives the whole sample's keys and summary.
    #[test]
    fn merged_parts_match_the_comparator_sort(
        xs in arb_samples(),
        cuts in prop::collection::vec(0usize..1 << 20, 0..5),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (xs.len() + 1)).collect();
        cuts.sort_unstable();
        let bounds = std::iter::once(0).chain(cuts).chain(std::iter::once(xs.len()));
        let bounds: Vec<usize> = bounds.collect();
        let parts: Vec<SortedSample> =
            bounds.windows(2).map(|w| SortedSample::new(xs[w[0]..w[1]].to_vec())).collect();
        let merged = SortedSample::merge(&parts.iter().collect::<Vec<_>>());
        let want: Vec<u64> = reference_sorted(&xs).iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(merged.values().map(f64::to_bits).collect::<Vec<_>>(), want);
        prop_assert_eq!(&merged, &SortedSample::new(xs.clone()));
        prop_assert_eq!(bits(merged.summary()), bits(reference_summary(&xs)));
    }

    #[test]
    fn percentile_matches_the_comparator_sort(xs in arb_samples(), p in arb_p()) {
        let want = reference_rank(&reference_sorted(&xs), p);
        prop_assert_eq!(stats::percentile(&xs, p).map(f64::to_bits), want.map(f64::to_bits));
    }

    #[test]
    fn half_range_matches_the_comparator_sort(xs in arb_samples()) {
        let sorted = reference_sorted(&xs);
        let want = reference_rank(&sorted, 0.99)
            .zip(reference_rank(&sorted, 0.01))
            .map(|(hi, lo)| arithmetic_bits((hi - lo) / 2.0));
        prop_assert_eq!(stats::pctl99_half_range(&xs).map(arithmetic_bits), want);
    }
}

#[test]
fn empty_samples_have_no_summary() {
    assert_eq!(stats::summary(&[]), None);
    assert_eq!(stats::summary_owned(Vec::new()), None);
    assert_eq!(SortedSample::merge(&[]).summary(), None);
    assert_eq!(SortedSample::merge(&[&SortedSample::default()]).summary(), None);
    assert_eq!(stats::percentile(&[], 0.5), None);
    assert_eq!(stats::pctl99_half_range(&[]), None);
}

#[test]
fn zeros_nans_and_infinities_take_their_total_order_places() {
    let xs = [f64::NAN, 0.0, -f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0];
    let s = stats::summary(&xs).expect("non-empty");
    assert_eq!(bits(Some(s)), bits(reference_summary(&xs)));
    assert_eq!(bits(stats::summary_owned(xs.to_vec())), bits(Some(s)));
    assert_eq!(stats::percentile(&xs, 0.0).map(f64::to_bits), Some((-f64::NAN).to_bits()));
    assert_eq!(stats::percentile(&xs, 0.2).map(f64::to_bits), Some(f64::NEG_INFINITY.to_bits()));
    assert_eq!(stats::percentile(&xs, 0.4).map(f64::to_bits), Some((-0.0f64).to_bits()));
    assert_eq!(stats::percentile(&xs, 0.5).map(f64::to_bits), Some(0.0f64.to_bits()));
    assert_eq!(s.max.to_bits(), f64::NAN.to_bits());
}
