//! Sample statistics used when deriving distributions from datasets.
//!
//! The paper reports Pearson correlation between input and output lengths
//! for each dataset (§7.1) and 99th-percentile execution-time ranges
//! (Table 7); these helpers compute both. [`Summary`] is the shared
//! latency-summary shape consumed by the runner's reports and the serving
//! loop's metrics histograms, and [`SortedSample`] a sorted sample that
//! summaries are read from and that merges with others without a sort.

use serde::Serialize;

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
    nearest_rank(&sorted(xs.to_vec()), p).map(value)
}

/// The sort key of `x`: the `u64` whose unsigned order is
/// [`f64::total_cmp`]'s order, the key that comparator is defined by.
/// Every bit of a negative value flips; any other value gets the sign bit.
fn key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((bits >> 63).wrapping_neg() | 1 << 63)
}

/// The sample whose sort key is `key`, bit for bit.
fn value(key: u64) -> f64 {
    f64::from_bits(key ^ (((key >> 63) ^ 1).wrapping_neg() | 1 << 63))
}

/// The ascending sort keys of `xs`, in `xs`'s own buffer: `u64` has
/// `f64`'s layout, so the `collect` maps the samples in place. Sorting
/// the keys orders the samples as `sort_unstable_by(f64::total_cmp)`
/// would, without calling a comparator: `total_cmp` calls two values
/// equal only when their bits are, so the sorted sequence is unique and
/// every sort of it is the same array.
fn sorted(xs: Vec<f64>) -> Vec<u64> {
    let mut keys: Vec<u64> = xs.into_iter().map(key).collect();
    keys.sort_unstable();
    keys
}

/// The key of the `p`-th percentile (nearest-rank) of ascending keys.
fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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
/// The samples are ordered by [`f64::total_cmp`] (through their sort
/// keys); the percentiles are nearest-rank, and the mean sums the samples
/// in ascending order.
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
    summary_owned(xs.to_vec())
}

/// [`summary`] of a sample no longer needed: its buffer becomes the sort
/// keys in place, so no sample is copied and nothing is allocated. Same
/// result, bit for bit.
pub fn summary_owned(xs: Vec<f64>) -> Option<Summary> {
    SortedSample::new(xs).summary()
}

/// A sample in ascending [`f64::total_cmp`] order, held as its sort keys.
///
/// It is sorted once and then summarized, or merged with other sorted
/// samples in linear time: the ascending key sequence of a multiset is
/// unique, so [`merge`](Self::merge) gives exactly the keys a sort of the
/// union gives, and the same [`Summary`], bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortedSample {
    keys: Vec<u64>,
}

impl SortedSample {
    /// Sorts `xs` in its own buffer, as [`summary_owned`] does: no sample
    /// is copied and nothing is allocated.
    pub fn new(xs: Vec<f64>) -> Self {
        Self { keys: sorted(xs) }
    }

    /// The number of samples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The samples in ascending order, bit for bit.
    pub fn values(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.keys.iter().map(|&k| value(k))
    }

    /// The [`summary`] of the sample (`None` if empty): nearest-rank
    /// percentiles, and the mean as the sum of the ascending samples.
    pub fn summary(&self) -> Option<Summary> {
        let keys = &self.keys;
        let max = value(*keys.last()?);
        let pick = |p| nearest_rank(keys, p).map_or(max, value);
        Some(Summary {
            count: keys.len(),
            mean: self.values().sum::<f64>() / keys.len() as f64,
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            max,
        })
    }

    /// The union of `parts`, sorted without sorting again: each part is
    /// merged in turn into one buffer, so every merge is one linear pass.
    pub fn merge(parts: &[&SortedSample]) -> Self {
        let mut keys = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
        for part in parts {
            merge_into(&mut keys, &part.keys);
        }
        Self { keys }
    }
}

/// Merges the ascending keys `part` into the ascending keys `keys`,
/// filling the grown buffer from the back.
fn merge_into(keys: &mut Vec<u64>, mut part: &[u64]) {
    // Parts that do not overlap (the first one, say) are appended.
    if keys.last() <= part.first() {
        keys.extend_from_slice(part);
        return;
    }
    let mut head = keys.len();
    keys.resize(head + part.len(), 0);
    let mut out = keys.len();
    // Once `part` is used up, `keys[..head]` is already in place.
    while let Some((&last, rest)) = part.split_last() {
        out -= 1;
        match head.checked_sub(1) {
            Some(h) if keys[h] > last => {
                keys[out] = keys[h];
                head = h;
            }
            _ => {
                keys[out] = last;
                part = rest;
            }
        }
    }
}

/// The symmetric 99th-percentile half-range around the mean,
/// `(p99 - p01) / 2`, as reported in Table 7 of the paper.
///
/// Returns `None` for an empty sample.
pub fn pctl99_half_range(xs: &[f64]) -> Option<f64> {
    let sorted = sorted(xs.to_vec());
    let hi = value(nearest_rank(&sorted, 0.99)?);
    let lo = value(nearest_rank(&sorted, 0.01)?);
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
    fn keys_order_as_total_cmp_and_decode_exactly() {
        let xs = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            1.0,
            -1.0,
            f64::MAX,
            f64::MIN,
        ];
        for a in xs {
            assert_eq!(value(key(a)).to_bits(), a.to_bits(), "{a}");
            for b in xs {
                assert_eq!(key(a).cmp(&key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
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
