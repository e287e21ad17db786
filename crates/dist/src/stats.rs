//! Sample statistics used when deriving distributions from datasets.
//!
//! The paper reports Pearson correlation between input and output lengths
//! for each dataset (§7.1) and 99th-percentile execution-time ranges
//! (Table 7); these helpers compute both. [`Summary`] is the shared
//! latency-summary shape consumed by the runner's reports and the serving
//! loop's metrics histograms.

use serde::{Deserialize, Serialize};

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns `None` if the slices differ in length, have fewer than two
/// elements, or either sample has zero variance.
///
/// # Example
///
/// ```
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.0, 4.0, 6.0, 8.0];
/// let r = exegpt_dist::stats::pearson(&x, &y).unwrap();
/// assert!((r - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (a, b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// The `p`-th percentile (nearest-rank) of a sample; `p` in `[0, 1]`.
///
/// Returns `None` for an empty sample.
///
/// # Example
///
/// ```
/// let xs = [5.0, 1.0, 3.0];
/// assert_eq!(exegpt_dist::stats::percentile(&xs, 0.5), Some(3.0));
/// ```
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    nearest_rank(&sorted(xs), p)
}

/// A sorted copy of `xs`. Unstable sorting is exact here: `total_cmp`
/// calls two values equal only when their bits are, so every order of
/// equal values is the same array.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    sorted
}

/// The `p`-th percentile (nearest-rank) of an ascending sample.
fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    sorted.get(rank - 1).copied()
}

/// Mean of a sample (`None` if empty).
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Sample standard deviation with Bessel's correction (`None` if `< 2`
/// elements).
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    Some(var.sqrt())
}

/// A one-pass latency/sample summary: count, mean, and the percentiles
/// every latency report in this workspace quotes.
///
/// Built via [`summary`]; shared by `exegpt-runner`'s [`RunReport`]s and
/// `exegpt-serve`'s metrics histograms so the two never disagree on
/// percentile semantics (nearest-rank, as [`percentile`]).
///
/// [`RunReport`]: https://docs.rs/exegpt-runner
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile, nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

/// Summarizes a sample into the shared [`Summary`] shape (`None` if empty).
///
/// # Example
///
/// ```
/// let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
/// let s = exegpt_dist::stats::summary(&xs).unwrap();
/// assert_eq!(s.count, 100);
/// assert_eq!(s.p50, 50.0);
/// assert_eq!(s.p99, 99.0);
/// assert_eq!(s.max, 100.0);
/// ```
pub fn summary(xs: &[f64]) -> Option<Summary> {
    summary_in_place(&mut xs.to_vec())
}

/// [`summary`] without the copy: sorts `xs` in place (ascending by
/// `total_cmp`), then summarizes it. Same result, bit for bit.
pub fn summary_in_place(xs: &mut [f64]) -> Option<Summary> {
    xs.sort_unstable_by(f64::total_cmp);
    let sorted = &*xs;
    let max = *sorted.last()?;
    let pick = |p| nearest_rank(sorted, p).unwrap_or(max);
    Some(Summary {
        count: sorted.len(),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50: pick(0.50),
        p95: pick(0.95),
        p99: pick(0.99),
        max,
    })
}

/// The symmetric 99th-percentile half-range around the mean,
/// `(p99 - p01) / 2`, as reported in Table 7 of the paper.
///
/// Returns `None` for an empty sample.
pub fn pctl99_half_range(xs: &[f64]) -> Option<f64> {
    let sorted = sorted(xs);
    let hi = nearest_rank(&sorted, 0.99)?;
    let lo = nearest_rank(&sorted, 0.01)?;
    Some((hi - lo) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_detects_anticorrelation() {
        let x = [1.0, 2.0, 3.0];
        let y = [3.0, 2.0, 1.0];
        assert!((pearson(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_edge_cases() {
        assert_eq!(pearson(&[1.0], &[1.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 0.25), Some(10.0));
        assert_eq!(percentile(&xs, 0.26), Some(20.0));
        assert_eq!(percentile(&xs, 1.0), Some(40.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn std_dev_bessel() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = std_dev(&xs).unwrap();
        assert!((s - 2.138_089_935).abs() < 1e-6);
        assert_eq!(std_dev(&[1.0]), None);
    }

    #[test]
    fn summary_matches_individual_helpers() {
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37) % 499) as f64).collect();
        let s = summary(&xs).unwrap();
        assert_eq!(s.count, xs.len());
        assert_eq!(Some(s.mean), mean(&xs));
        assert_eq!(Some(s.p50), percentile(&xs, 0.50));
        assert_eq!(Some(s.p95), percentile(&xs, 0.95));
        assert_eq!(Some(s.p99), percentile(&xs, 0.99));
        assert_eq!(s.max, xs.iter().copied().fold(f64::MIN, f64::max));
        assert_eq!(summary(&[]), None);
    }

    #[test]
    fn summary_in_place_sorts_and_matches_summary() {
        let xs: Vec<f64> = (0..257).map(|i| ((i * 53) % 101) as f64 - 50.0).collect();
        let mut ys = xs.clone();
        let s = summary_in_place(&mut ys).expect("non-empty");
        assert_eq!(Some(s), summary(&xs));
        assert!(ys.windows(2).all(|w| w[0] <= w[1]), "sorted in place");
        for (got, p) in [(s.p50, 0.50), (s.p95, 0.95), (s.p99, 0.99)] {
            assert_eq!(got.to_bits(), stable_percentile(&xs, p).to_bits(), "p = {p}");
        }
        assert_eq!(summary_in_place(&mut []), None);
    }

    /// The nearest-rank percentile over a stably sorted copy, as every
    /// percentile here was once computed.
    fn stable_percentile(xs: &[f64], p: f64) -> f64 {
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn half_range_matches_two_percentiles_bit_for_bit() {
        let xs: Vec<f64> = (0..1_000).map(|i| ((i * 7_919) % 997) as f64 * 0.37 - 5.0).collect();
        for n in [1, 2, 3, 99, 100, 101, 1_000] {
            let xs = &xs[..n];
            let want = (stable_percentile(xs, 0.99) - stable_percentile(xs, 0.01)) / 2.0;
            assert_eq!(pctl99_half_range(xs).map(f64::to_bits), Some(want.to_bits()), "n = {n}");
        }
        assert_eq!(pctl99_half_range(&[]), None);
    }

    #[test]
    fn half_range_is_symmetric_measure() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let r = pctl99_half_range(&xs).unwrap();
        assert!((r - 49.5).abs() < 1.5);
    }
}
