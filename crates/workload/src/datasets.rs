//! Surrogate real-world datasets (paper §7.5, Figure 10).
//!
//! The paper evaluates on WMT-16 (translation), Stanford Alpaca
//! (conversational Q/A), and CNN/DailyMail (summarization). Only the
//! datasets' *sequence lengths* reach the systems under test (generation is
//! forced to the dataset's lengths), so we synthesize surrogate length
//! pairs reproducing the statistics the paper relies on:
//!
//! * the per-task means/spreads (comparable to Table 3's families),
//! * the *long right tail* of real outputs — the paper attributes ExeGPT's
//!   larger real-world wins to exactly this tail (§7.5) — modeled as a
//!   truncated-normal body mixed with a Pareto tail,
//! * the input↔output length correlation: high for translation (0.57–0.94),
//!   low (0.08–0.21) elsewhere (§7.1).

use exegpt_dist::{stats, DistError, LengthDist};
use exegpt_sim::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// A surrogate real-world dataset: paired (input, output) lengths.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Dataset {
    name: String,
    pairs: Vec<(usize, usize)>,
}

/// Parameters of one surrogate generator.
struct Shape {
    name: &'static str,
    input_mean: f64,
    input_std: f64,
    input_max: usize,
    output_mean: f64,
    output_std: f64,
    output_max: usize,
    /// Fraction of outputs drawn from the Pareto tail.
    tail_frac: f64,
    /// Pareto shape (smaller = heavier tail).
    tail_alpha: f64,
    /// Target input↔output correlation.
    correlation: f64,
}

impl Dataset {
    /// WMT-16 English→German translation surrogate: symmetric lengths,
    /// strong input↔output correlation, mild tail.
    pub fn wmt(size: usize, seed: u64) -> Self {
        Self::synthesize(
            &Shape {
                name: "WMT",
                input_mean: 110.0,
                input_std: 60.0,
                input_max: 384,
                output_mean: 118.0,
                output_std: 62.0,
                output_max: 420,
                tail_frac: 0.02,
                tail_alpha: 3.0,
                correlation: 0.85,
            },
            size,
            seed,
        )
    }

    /// Stanford Alpaca conversational surrogate: short prompts, long-tailed
    /// responses, low correlation.
    pub fn alpaca(size: usize, seed: u64) -> Self {
        Self::synthesize(
            &Shape {
                name: "Alpaca",
                input_mean: 48.0,
                input_std: 30.0,
                input_max: 256,
                output_mean: 160.0,
                output_std: 90.0,
                output_max: 1024,
                tail_frac: 0.08,
                tail_alpha: 1.8,
                correlation: 0.15,
            },
            size,
            seed,
        )
    }

    /// CNN/DailyMail summarization surrogate: long articles, short
    /// highlights with a moderate tail, low correlation.
    pub fn cnn_dailymail(size: usize, seed: u64) -> Self {
        Self::synthesize(
            &Shape {
                name: "CNN",
                input_mean: 680.0,
                input_std: 280.0,
                input_max: 2048,
                output_mean: 56.0,
                output_std: 22.0,
                output_max: 320,
                tail_frac: 0.05,
                tail_alpha: 2.2,
                correlation: 0.12,
            },
            size,
            seed,
        )
    }

    fn synthesize(shape: &Shape, size: usize, seed: u64) -> Self {
        assert!(size > 0, "dataset must have at least one pair");
        let mut rng = StdRng::seed_from_u64(seed);
        #[expect(
            clippy::expect_used,
            reason = "surrogate Shape presets are compile-time constants"
        )]
        let input =
            LengthDist::truncated_normal(shape.input_mean, shape.input_std, shape.input_max)
                .expect("surrogate shape parameters are valid");
        #[expect(
            clippy::expect_used,
            reason = "surrogate Shape presets are compile-time constants"
        )]
        let body =
            LengthDist::truncated_normal(shape.output_mean, shape.output_std, shape.output_max)
                .expect("surrogate shape parameters are valid");
        let mut pairs = Vec::with_capacity(size);
        for _ in 0..size {
            let u_shared = rng.gen::<f64>();
            let u_in = correlate(u_shared, rng.gen::<f64>(), shape.correlation);
            let u_out = correlate(u_shared, rng.gen::<f64>(), shape.correlation);
            let input_len = input.quantile(u_in);
            let output_len = if rng.gen::<f64>() < shape.tail_frac {
                // Pareto tail anchored at the body's 90th percentile.
                let anchor = body.quantile(0.90) as f64;
                let draw = anchor * (1.0 - rng.gen::<f64>()).powf(-1.0 / shape.tail_alpha);
                (draw as usize).min(shape.output_max)
            } else {
                body.quantile(u_out)
            };
            pairs.push((input_len.max(1), output_len.max(1)));
        }
        Self { name: shape.name.to_string(), pairs }
    }

    /// Dataset name (`WMT`, `Alpaca`, `CNN`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The (input, output) length pairs.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the dataset is empty (never true for the surrogates).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Pearson correlation between input and output lengths.
    pub fn correlation(&self) -> f64 {
        let x: Vec<f64> = self.pairs.iter().map(|p| p.0 as f64).collect();
        let y: Vec<f64> = self.pairs.iter().map(|p| p.1 as f64).collect();
        stats::pearson(&x, &y).unwrap_or(0.0)
    }

    /// Splits into an estimation set and an evaluation set, as the paper
    /// does (10% to estimate the distribution, 90% to evaluate, §7.5).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < estimate_frac < 1.0`.
    pub fn split(&self, estimate_frac: f64) -> (Dataset, Dataset) {
        assert!(estimate_frac > 0.0 && estimate_frac < 1.0, "estimate fraction must be in (0, 1)");
        let cut = ((self.pairs.len() as f64 * estimate_frac) as usize).max(1);
        (
            Dataset { name: self.name.clone(), pairs: self.pairs[..cut].to_vec() },
            Dataset { name: self.name.clone(), pairs: self.pairs[cut..].to_vec() },
        )
    }

    /// Estimates a [`Workload`] (empirical length distributions) from this
    /// dataset, as ExeGPT's scheduler consumes it.
    ///
    /// # Errors
    ///
    /// Returns a distribution error if the dataset is empty.
    pub fn estimate_workload(&self) -> Result<Workload, DistError> {
        let inputs: Vec<usize> = self.pairs.iter().map(|p| p.0).collect();
        let outputs: Vec<usize> = self.pairs.iter().map(|p| p.1).collect();
        Ok(Workload::new(LengthDist::empirical(&inputs)?, LengthDist::empirical(&outputs)?))
    }
}

/// Mixes a shared uniform with an independent one to induce rank
/// correlation ~`rho` between two quantile draws.
fn correlate(shared: f64, independent: f64, rho: f64) -> f64 {
    (rho * shared + (1.0 - rho) * independent).clamp(0.0, 1.0 - 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surrogates_are_deterministic() {
        let a = Dataset::wmt(500, 1);
        let b = Dataset::wmt(500, 1);
        assert_eq!(a, b);
        assert_ne!(a, Dataset::wmt(500, 2));
    }

    #[test]
    fn translation_is_correlated_others_are_not() {
        let wmt = Dataset::wmt(4000, 11);
        let alpaca = Dataset::alpaca(4000, 11);
        let cnn = Dataset::cnn_dailymail(4000, 11);
        assert!(wmt.correlation() > 0.5, "WMT corr {}", wmt.correlation());
        assert!(alpaca.correlation().abs() < 0.3, "Alpaca corr {}", alpaca.correlation());
        assert!(cnn.correlation().abs() < 0.3, "CNN corr {}", cnn.correlation());
    }

    #[test]
    fn outputs_have_long_right_tails() {
        // Tail heaviness: p99.5 well beyond the body's reach.
        let alpaca = Dataset::alpaca(8000, 5);
        let outs: Vec<f64> = alpaca.pairs().iter().map(|p| p.1 as f64).collect();
        let p50 = exegpt_dist::stats::percentile(&outs, 0.5).expect("non-empty");
        let p995 = exegpt_dist::stats::percentile(&outs, 0.995).expect("non-empty");
        assert!(p995 > 3.0 * p50, "tail too light: p50 {p50}, p99.5 {p995}");
    }

    #[test]
    fn split_preserves_pairs() {
        let d = Dataset::cnn_dailymail(1000, 3);
        let (est, eval) = d.split(0.1);
        assert_eq!(est.len() + eval.len(), 1000);
        assert_eq!(est.len(), 100);
        assert_eq!(est.name(), "CNN");
    }

    #[test]
    fn estimated_workload_matches_sample_moments() {
        let d = Dataset::wmt(5000, 9);
        let w = d.estimate_workload().expect("non-empty");
        let mean_in: f64 = d.pairs().iter().map(|p| p.0 as f64).sum::<f64>() / d.len() as f64;
        assert!((w.input().mean() - mean_in).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "estimate fraction")]
    fn bad_split_fraction_panics() {
        let _ = Dataset::wmt(100, 1).split(1.5);
    }
}
