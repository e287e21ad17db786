//! Discrete sequence-length distributions.

use rand::Rng;

use crate::error::DistError;
use crate::math;

/// A discrete probability distribution over sequence lengths `1..=max_len`.
///
/// All constructors normalize to a proper distribution; internally a PMF, a
/// CDF and a bucket guide into the CDF are materialized once, so that
/// lookups are `O(1)` and a quantile (hence a sample) starts its search at
/// the CDF entry its bucket names, a step or two from the answer. The paper found truncated normal the best fit for
/// public NLP datasets (§7.1) and uses skew normal for the shift study
/// (Figure 11); empirical distributions back the real-dataset evaluation
/// (Figure 10).
///
/// # Example
///
/// ```
/// use exegpt_dist::LengthDist;
///
/// let d = LengthDist::truncated_normal(32.0, 13.0, 80)?;
/// let total: f64 = (1..=80).map(|l| d.pmf(l)).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// # Ok::<(), exegpt_dist::DistError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LengthDist {
    /// `pmf[i]` is the probability of length `i + 1`.
    pmf: Vec<f64>,
    /// `cdf[i]` is the probability of length `<= i + 1`.
    cdf: Vec<f64>,
    /// `guide[k]` counts the CDF entries below `k / n` in the total order,
    /// for `n` lengths: where [`quantile`](Self::quantile) starts for a `p`
    /// in `[k / n, (k + 1) / n)`.
    guide: Vec<u32>,
    mean: f64,
    std: f64,
}

impl LengthDist {
    /// Builds a distribution from unnormalized weights for lengths
    /// `1..=weights.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParameter`] if `weights` is empty, has a
    /// non-finite/negative entry, or sums to zero.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self, DistError> {
        if weights.is_empty() {
            return Err(DistError::InvalidParameter { what: "weights", why: "must be non-empty" });
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(DistError::InvalidParameter {
                what: "weights",
                why: "must be finite and non-negative",
            });
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(DistError::InvalidParameter {
                what: "weights",
                why: "must not all be zero",
            });
        }
        let pmf: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut cdf = Vec::with_capacity(pmf.len());
        let mut acc = 0.0;
        for p in &pmf {
            acc += p;
            cdf.push(acc);
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let mean: f64 = pmf.iter().enumerate().map(|(i, p)| (i + 1) as f64 * p).sum();
        let var: f64 =
            pmf.iter().enumerate().map(|(i, p)| ((i + 1) as f64 - mean).powi(2) * p).sum();
        let n = cdf.len();
        if u32::try_from(n).is_err() {
            return Err(DistError::InvalidParameter {
                what: "weights",
                why: "must have fewer than 2^32 lengths",
            });
        }
        let mut below = 0;
        let guide = (0..n)
            .map(|k| {
                let edge = k as f64 / n as f64;
                while below < n && cdf[below].total_cmp(&edge).is_lt() {
                    below += 1;
                }
                below as u32
            })
            .collect();
        Ok(Self { pmf, cdf, guide, mean, std: var.sqrt() })
    }

    /// Truncated normal over `1..=max_len` with the given (pre-truncation)
    /// mean and standard deviation, the paper's default task model.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParameter`] for `max_len == 0`,
    /// non-positive mean or negative std.
    pub fn truncated_normal(mean: f64, std: f64, max_len: usize) -> Result<Self, DistError> {
        Self::validate_common(mean, std, max_len)?;
        if std <= 0.0 {
            return Self::point_mass(mean.round().max(1.0) as usize, max_len);
        }
        let z = |x: f64| (x - mean) / std;
        // Exact probability mass of each unit bin via CDF differences.
        let weights: Vec<f64> = (1..=max_len)
            .map(|l| {
                let lo = if l == 1 { f64::NEG_INFINITY } else { l as f64 - 0.5 };
                let hi = if l == max_len { f64::INFINITY } else { l as f64 + 0.5 };
                let c_lo =
                    if lo.is_finite() { math::cap_phi(z(lo)) } else { math::cap_phi(z(0.5)) };
                let c_hi = if hi.is_finite() { math::cap_phi(z(hi)) } else { 1.0 };
                (c_hi - c_lo).max(0.0)
            })
            .collect();
        Self::from_weights(weights)
    }

    /// Skew normal over `1..=max_len` realizing the given mean, standard
    /// deviation and skewness (attainable range roughly `|skew| < 0.995`).
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParameter`] if the skewness is outside the
    /// attainable range or the common parameters are invalid.
    pub fn skew_normal(
        mean: f64,
        std: f64,
        skewness: f64,
        max_len: usize,
    ) -> Result<Self, DistError> {
        Self::validate_common(mean, std, max_len)?;
        let (xi, omega, alpha) = math::skew_normal_from_moments(mean, std, skewness).ok_or(
            DistError::InvalidParameter {
                what: "skewness",
                why: "outside the attainable range of the skew-normal family",
            },
        )?;
        // Simpson's rule over each unit bin.
        let weights: Vec<f64> = (1..=max_len)
            .map(|l| {
                let a = l as f64 - 0.5;
                let b = l as f64 + 0.5;
                let m = l as f64;
                let f = |x: f64| math::skew_normal_pdf(x, xi, omega, alpha);
                (f(a) + 4.0 * f(m) + f(b)) / 6.0
            })
            .collect();
        Self::from_weights(weights)
    }

    /// Log-normal over `1..=max_len`, parameterized by the target mean and
    /// standard deviation of the *length* itself (one of the families the
    /// paper compares before settling on truncated normal, §7.1).
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParameter`] for non-positive mean/std or
    /// `max_len == 0`.
    pub fn log_normal(mean: f64, std: f64, max_len: usize) -> Result<Self, DistError> {
        Self::validate_common(mean, std, max_len)?;
        if std <= 0.0 {
            return Self::point_mass(mean.round().max(1.0) as usize, max_len);
        }
        // Moment matching: sigma^2 = ln(1 + s^2/m^2), mu = ln m - sigma^2/2.
        let sigma2 = (1.0 + (std / mean).powi(2)).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        let sigma = sigma2.sqrt();
        let cdf = |x: f64| {
            if x <= 0.0 {
                0.0
            } else {
                math::cap_phi((x.ln() - mu) / sigma)
            }
        };
        let weights: Vec<f64> = (1..=max_len)
            .map(|l| {
                let lo = if l == 1 { 0.0 } else { l as f64 - 0.5 };
                let hi = if l == max_len { f64::INFINITY } else { l as f64 + 0.5 };
                let c_hi = if hi.is_finite() { cdf(hi) } else { 1.0 };
                (c_hi - cdf(lo)).max(0.0)
            })
            .collect();
        Self::from_weights(weights)
    }

    /// Degenerate distribution: every sequence has exactly `len` tokens.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParameter`] if `len == 0` or
    /// `len > max_len`.
    pub fn point_mass(len: usize, max_len: usize) -> Result<Self, DistError> {
        if len == 0 || len > max_len {
            return Err(DistError::InvalidParameter {
                what: "len",
                why: "point mass must satisfy 1 <= len <= max_len",
            });
        }
        let mut weights = vec![0.0; max_len];
        weights[len - 1] = 1.0;
        Self::from_weights(weights)
    }

    /// Empirical distribution from observed lengths (clamped to `>= 1`).
    ///
    /// # Errors
    ///
    /// Returns [`DistError::EmptySamples`] if `samples` is empty.
    pub fn empirical(samples: &[usize]) -> Result<Self, DistError> {
        if samples.is_empty() {
            return Err(DistError::EmptySamples);
        }
        let max = samples.iter().copied().max().unwrap_or(1).max(1);
        let mut weights = vec![0.0; max];
        for &s in samples {
            weights[s.max(1) - 1] += 1.0;
        }
        Self::from_weights(weights)
    }

    fn validate_common(mean: f64, std: f64, max_len: usize) -> Result<(), DistError> {
        if max_len == 0 {
            return Err(DistError::InvalidParameter { what: "max_len", why: "must be at least 1" });
        }
        #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must be rejected too")]
        if !(mean > 0.0) {
            return Err(DistError::InvalidParameter { what: "mean", why: "must be positive" });
        }
        #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must be rejected too")]
        if !(std >= 0.0) {
            return Err(DistError::InvalidParameter { what: "std", why: "must be non-negative" });
        }
        Ok(())
    }

    /// Probability of exactly `len` tokens (0 outside `1..=max_len`).
    pub fn pmf(&self, len: usize) -> f64 {
        if len == 0 || len > self.pmf.len() {
            0.0
        } else {
            self.pmf[len - 1]
        }
    }

    /// The whole PMF: `masses()[i]` is the probability of length `i + 1`.
    pub(crate) fn masses(&self) -> &[f64] {
        &self.pmf
    }

    /// Probability of at most `len` tokens.
    pub fn cdf(&self, len: usize) -> f64 {
        if len == 0 {
            0.0
        } else if len > self.cdf.len() {
            1.0
        } else {
            self.cdf[len - 1]
        }
    }

    /// Largest length with non-zero probability bound (`max_len`).
    pub fn max_len(&self) -> usize {
        self.pmf.len()
    }

    /// Mean length.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation of the length.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Second raw moment `E[S^2]`.
    pub fn mean_sq(&self) -> f64 {
        self.std * self.std + self.mean * self.mean
    }

    /// Smallest length `l` with `cdf(l) >= p` (`p` clamped to `[0, 1]`).
    ///
    /// `quantile(0.99)` is the paper's 99th-percentile sequence length used
    /// for latency bounds (§7.1).
    ///
    /// The search starts at the guide's entry for `p`'s bucket and steps
    /// back, then forward, in the total order, so it is exact however
    /// `p · n` rounds. A NaN `p` sorts by its sign: a positive one above
    /// every CDF value (giving `max_len`), a negative one below (giving 1).
    pub fn quantile(&self, p: f64) -> usize {
        let p = p.clamp(0.0, 1.0);
        let n = self.cdf.len();
        let mut i = self.guide[((p * n as f64) as usize).min(n - 1)] as usize;
        while i > 0 && self.cdf[i - 1].total_cmp(&p).is_ge() {
            i -= 1;
        }
        while i < n && self.cdf[i].total_cmp(&p).is_lt() {
            i += 1;
        }
        (i + 1).min(n)
    }

    /// Draws a length from the distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.quantile(rng.gen::<f64>())
    }

    /// Iterator over `(length, probability)` pairs with non-zero mass.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.pmf.iter().enumerate().filter(|(_, p)| **p > 0.0).map(|(i, p)| (i + 1, *p))
    }

    /// Returns a copy with the mean scaled by `k` (std preserved), used for
    /// the distribution-shift experiments (Figure 11a). The support is kept.
    ///
    /// # Errors
    ///
    /// Propagates construction errors if the scaled mean is invalid.
    pub fn with_scaled_mean(&self, k: f64) -> Result<Self, DistError> {
        Self::truncated_normal(self.mean * k, self.std, self.max_len())
    }

    /// Returns a copy with the std scaled by `k` (mean preserved), used for
    /// the distribution-shift experiments (Figure 11b).
    ///
    /// # Errors
    ///
    /// Propagates construction errors if the scaled std is invalid.
    pub fn with_scaled_std(&self, k: f64) -> Result<Self, DistError> {
        Self::truncated_normal(self.mean, self.std * k, self.max_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let d = LengthDist::truncated_normal(256.0, 252.0, 512).expect("valid");
        let total: f64 = d.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn moments_close_to_parameters_when_untruncated() {
        // std much smaller than distance to the bounds: truncation negligible.
        let d = LengthDist::truncated_normal(200.0, 20.0, 512).expect("valid");
        assert!((d.mean() - 200.0).abs() < 0.5);
        assert!((d.std() - 20.0).abs() < 0.5);
    }

    #[test]
    fn heavy_truncation_shifts_mean_up() {
        // Mean near zero with wide std: truncation below 1 pushes mean up.
        let d = LengthDist::truncated_normal(32.0, 64.0, 512).expect("valid");
        assert!(d.mean() > 32.0);
    }

    #[test]
    fn quantile_is_inverse_of_cdf() {
        let d = LengthDist::truncated_normal(128.0, 68.0, 320).expect("valid");
        for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
            let q = d.quantile(p);
            assert!(d.cdf(q) >= p);
            if q > 1 {
                assert!(d.cdf(q - 1) < p, "quantile({p}) = {q} is not minimal");
            }
        }
    }

    #[test]
    fn point_mass_behaves() {
        let d = LengthDist::point_mass(7, 10).expect("valid");
        assert_eq!(d.pmf(7), 1.0);
        assert_eq!(d.mean(), 7.0);
        assert_eq!(d.std(), 0.0);
        assert_eq!(d.quantile(0.5), 7);
        assert!(LengthDist::point_mass(0, 10).is_err());
        assert!(LengthDist::point_mass(11, 10).is_err());
    }

    #[test]
    fn zero_std_truncated_normal_degenerates_to_point_mass() {
        let d = LengthDist::truncated_normal(42.0, 0.0, 100).expect("valid");
        assert_eq!(d.pmf(42), 1.0);
    }

    #[test]
    fn empirical_matches_counts() {
        let d = LengthDist::empirical(&[2, 2, 4]).expect("valid");
        assert!((d.pmf(2) - 2.0 / 3.0).abs() < 1e-12);
        assert!((d.pmf(4) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.max_len(), 4);
        assert!(LengthDist::empirical(&[]).is_err());
    }

    #[test]
    fn sampling_matches_distribution() {
        let d = LengthDist::truncated_normal(64.0, 23.0, 128).expect("valid");
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - d.mean()).abs() < 1.0, "sample mean {mean} vs {}", d.mean());
    }

    #[test]
    fn skew_normal_has_requested_skew_direction() {
        let sym = LengthDist::skew_normal(128.0, 40.0, 0.0, 400).expect("valid");
        let pos = LengthDist::skew_normal(128.0, 40.0, 0.4, 400).expect("valid");
        // Positive skew => longer right tail => higher 99th percentile.
        assert!(pos.quantile(0.99) > sym.quantile(0.99));
        assert!((pos.mean() - sym.mean()).abs() < 2.0, "means stay matched");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(LengthDist::truncated_normal(0.0, 1.0, 10).is_err());
        assert!(LengthDist::truncated_normal(5.0, -1.0, 10).is_err());
        assert!(LengthDist::truncated_normal(5.0, 1.0, 0).is_err());
        assert!(LengthDist::skew_normal(5.0, 1.0, 2.0, 10).is_err());
        assert!(LengthDist::from_weights(vec![]).is_err());
        assert!(LengthDist::from_weights(vec![0.0, 0.0]).is_err());
        assert!(LengthDist::from_weights(vec![1.0, -1.0]).is_err());
    }

    #[test]
    fn shift_helpers_change_the_right_moment() {
        let d = LengthDist::truncated_normal(128.0, 30.0, 512).expect("valid");
        let wider = d.with_scaled_std(1.3).expect("valid");
        assert!((wider.mean() - d.mean()).abs() < 2.0);
        assert!(wider.std() > d.std() * 1.2);
        let longer = d.with_scaled_mean(1.3).expect("valid");
        assert!(longer.mean() > d.mean() * 1.25);
    }
}
