//! Fitting length-distribution families to observed samples.
//!
//! The paper selected its task model by comparing candidate families against
//! public NLP datasets and found the truncated normal most accurate (§7.1).
//! This module reproduces that selection step: fit each family by moment
//! matching and rank them by log-likelihood on the sample.

use serde::Serialize;

use crate::error::DistError;
use crate::length::LengthDist;
use crate::stats;

/// A candidate distribution family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Family {
    /// Normal truncated to the support (the paper's choice).
    TruncatedNormal,
    /// Log-normal.
    LogNormal,
    /// Skew normal (moment-matched skewness, clamped to the attainable
    /// range).
    SkewNormal,
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Family::TruncatedNormal => write!(f, "truncated-normal"),
            Family::LogNormal => write!(f, "log-normal"),
            Family::SkewNormal => write!(f, "skew-normal"),
        }
    }
}

/// Extra shape parameters of a family beyond location/scale, used as a
/// parsimony penalty when ranking (a skew normal with near-zero skewness
/// should not beat the truncated normal it degenerates to).
fn complexity(family: Family) -> f64 {
    match family {
        Family::TruncatedNormal | Family::LogNormal => 0.0,
        Family::SkewNormal => 1.0,
    }
}

/// One family's fit to a sample.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fit {
    /// The family.
    pub family: Family,
    /// The fitted distribution.
    pub dist: LengthDist,
    /// Mean log-likelihood per sample.
    pub log_likelihood: f64,
}

/// Sample skewness (Fisher-Pearson), 0 for degenerate samples.
fn sample_skewness(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 3.0 {
        return 0.0;
    }
    let m = xs.iter().sum::<f64>() / n;
    let m2 = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n;
    let m3 = xs.iter().map(|x| (x - m).powi(3)).sum::<f64>() / n;
    if m2 <= 0.0 {
        0.0
    } else {
        m3 / m2.powf(1.5)
    }
}

fn mean_log_likelihood(dist: &LengthDist, samples: &[usize]) -> f64 {
    let floor = 1e-12f64;
    samples.iter().map(|&s| dist.pmf(s).max(floor).ln()).sum::<f64>() / samples.len() as f64
}

/// Fits every family to the sample and returns them ranked best-first by
/// log-likelihood.
///
/// # Errors
///
/// Returns [`DistError::EmptySamples`] if the sample is empty, or a
/// parameter error if its moments are degenerate for every family.
pub fn fit_all(samples: &[usize]) -> Result<Vec<Fit>, DistError> {
    if samples.is_empty() {
        return Err(DistError::EmptySamples);
    }
    let xs: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    let mean = stats::mean(&xs).ok_or(DistError::EmptySamples)?;
    let std = stats::std_dev(&xs).unwrap_or(0.0);
    let max_len = samples.iter().copied().max().unwrap_or(1).max(1) * 2;
    let skew = sample_skewness(&xs).clamp(-0.95, 0.95);

    let mut fits = Vec::new();
    let candidates: [(Family, Result<LengthDist, DistError>); 3] = [
        (Family::TruncatedNormal, LengthDist::truncated_normal(mean, std, max_len)),
        (Family::LogNormal, LengthDist::log_normal(mean, std, max_len)),
        (Family::SkewNormal, LengthDist::skew_normal(mean, std, skew, max_len)),
    ];
    for (family, dist) in candidates {
        if let Ok(dist) = dist {
            let log_likelihood = mean_log_likelihood(&dist, samples);
            fits.push(Fit { family, dist, log_likelihood });
        }
    }
    if fits.is_empty() {
        return Err(DistError::InvalidParameter {
            what: "samples",
            why: "no family could be fitted to the sample moments",
        });
    }
    // Rank by penalized likelihood (an AIC-style parsimony term of 0.005
    // nats per extra shape parameter breaks near-ties toward the simpler
    // family), but report raw likelihoods.
    fits.sort_by(|a, b| {
        let ka = a.log_likelihood - 0.005 * complexity(a.family);
        let kb = b.log_likelihood - 0.005 * complexity(b.family);
        kb.total_cmp(&ka)
    });
    Ok(fits)
}

/// The best-fitting family for a sample (convenience over [`fit_all`]).
///
/// # Errors
///
/// See [`fit_all`].
///
/// # Example
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use exegpt_dist::{fit, LengthDist};
///
/// // Data genuinely drawn from a truncated normal…
/// let truth = LengthDist::truncated_normal(128.0, 40.0, 512)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let samples: Vec<usize> = (0..4000).map(|_| truth.sample(&mut rng)).collect();
/// // …is recognized as such (the paper's §7.1 finding for NLP datasets).
/// let best = fit::best_fit(&samples)?;
/// assert_eq!(best.family, fit::Family::TruncatedNormal);
/// # Ok::<(), exegpt_dist::DistError>(())
/// ```
pub fn best_fit(samples: &[usize]) -> Result<Fit, DistError> {
    Ok(fit_all(samples)?.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw(d: &LengthDist, n: usize, seed: u64) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn recovers_the_generating_family() {
        let tn = LengthDist::truncated_normal(200.0, 60.0, 800).expect("valid");
        let best = best_fit(&draw(&tn, 5000, 3)).expect("fits");
        assert_eq!(best.family, Family::TruncatedNormal);

        let ln = LengthDist::log_normal(100.0, 120.0, 2000).expect("valid");
        let best = best_fit(&draw(&ln, 5000, 4)).expect("fits");
        assert_eq!(best.family, Family::LogNormal, "heavy-tailed data prefers log-normal");
    }

    #[test]
    fn ranks_all_families() {
        let tn = LengthDist::truncated_normal(64.0, 20.0, 256).expect("valid");
        let fits = fit_all(&draw(&tn, 2000, 9)).expect("fits");
        assert!(fits.len() >= 2);
        // Ordered by penalized likelihood: raw likelihoods may only cross
        // within the parsimony margin.
        for w in fits.windows(2) {
            assert!(w[0].log_likelihood >= w[1].log_likelihood - 0.005);
        }
    }

    #[test]
    fn empty_samples_are_rejected() {
        assert!(matches!(fit_all(&[]), Err(DistError::EmptySamples)));
    }

    #[test]
    fn log_normal_moments_match() {
        let d = LengthDist::log_normal(100.0, 50.0, 2000).expect("valid");
        assert!((d.mean() - 100.0).abs() < 2.0, "mean {}", d.mean());
        assert!((d.std() - 50.0).abs() < 3.0, "std {}", d.std());
    }
}
