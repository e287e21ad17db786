//! The paper's completion-probability analysis `P_D(U)` (§6).
//!
//! Under RRA scheduling, encoding runs once every `N_D` decoding iterations.
//! Queries in a decoding batch therefore come from *different* encoding
//! phases, and `P_D(U)` — the probability that a query completes at the
//! `U`-th iteration after the most recent encoding phase — is what lets the
//! scheduler size encoder batches so the pipeline stays in steady state:
//! `B_E = B_D · Σ_U P_D(U)`.

use serde::Serialize;

use crate::error::DistError;
use crate::length::LengthDist;

/// Distribution of the completion iteration `U ∈ 1..=N_D` within a decoding
/// phase, derived from an output-length distribution.
///
/// # Example
///
/// ```
/// use exegpt_dist::{CompletionDist, LengthDist};
///
/// let out = LengthDist::truncated_normal(32.0, 13.0, 80)?;
/// let c = CompletionDist::new(&out, 16)?;
/// // With N_D=16 and mean output 32, roughly half the batch completes
/// // per decoding phase.
/// assert!((c.completion_fraction() - 0.5).abs() < 0.15);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompletionDist {
    /// `probs[u-1] = P_D(U = u)`.
    probs: Vec<f64>,
    n_d: usize,
}

impl CompletionDist {
    /// Computes `P_D(U)` for encoding frequency `N_D` from the output-length
    /// distribution `P_D(S)`, following the paper's conditional form:
    ///
    /// * `S <= N_D`: the query (admitted at the start of some phase)
    ///   completes at `U = S` with probability 1.
    /// * `S > N_D`: the query spans `ceil(S / N_D)` phases; seen from a
    ///   random phase, it completes at `U = 1 + ((S - 1) mod N_D)` with
    ///   probability `1 / ceil(S / N_D)`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParameter`] if `n_d == 0`.
    pub fn new(output: &LengthDist, n_d: usize) -> Result<Self, DistError> {
        check_n_d(n_d)?;
        let mut probs = vec![0.0; n_d];
        accumulate(output, &mut probs);
        Ok(Self { probs, n_d })
    }

    /// The encoding frequency `N_D` this distribution was computed for.
    pub fn n_d(&self) -> usize {
        self.n_d
    }

    /// `P_D(U = u)`; zero outside `1..=N_D`.
    pub fn prob(&self, u: usize) -> f64 {
        if u == 0 || u > self.n_d {
            0.0
        } else {
            self.probs[u - 1]
        }
    }

    /// `Σ_U P_D(U)`: the expected fraction of a decoding batch that
    /// completes during one decoding phase.
    ///
    /// The paper sets `B_E = B_D · completion_fraction()` so that encoding
    /// exactly refills the completed slots.
    pub fn completion_fraction(&self) -> f64 {
        self.probs.iter().sum()
    }

    /// Steady-state decoding batch size for a given encoder batch size:
    /// `B_D = B_E / Σ_U P_D(U)` (§6), rounded to the nearest whole query.
    ///
    /// Returns `None` if the completion fraction is zero (no query can ever
    /// complete within the support, e.g. `N_D` longer than any output).
    pub fn decode_batch_for(&self, b_e: usize) -> Option<usize> {
        Self::decode_batch(self.completion_fraction(), b_e)
    }

    /// [`decode_batch_for`](Self::decode_batch_for) from a completion
    /// fraction summed beforehand, for callers that size many encoder
    /// batches against one `N_D`.
    pub fn decode_batch(fraction: f64, b_e: usize) -> Option<usize> {
        if fraction <= 0.0 {
            return None;
        }
        Some(((b_e as f64 / fraction).round() as usize).max(1))
    }

    /// Expected number of completions in one decoding phase for a decoding
    /// batch of `b_d` queries.
    pub fn expected_completions(&self, b_d: usize) -> f64 {
        b_d as f64 * self.completion_fraction()
    }

    /// Expected number of *active* (not yet completed) queries at the start
    /// of decode iteration `u` of a phase (`u ∈ 1..=N_D`), for a batch that
    /// starts the phase with `b_d` queries and is *not* refilled mid-phase.
    ///
    /// Used by the simulator to account for early termination shrinking the
    /// batch between encoding phases.
    pub fn expected_active(&self, b_d: usize, u: usize) -> f64 {
        b_d as f64 * self.survival(u)
    }

    /// Survival factor at iteration `u`: the expected fraction of the batch
    /// still active at the start of decode iteration `u` of a phase,
    /// `1 - Σ_{v<u} P_D(v)` (so `expected_active = b_d · survival`).
    pub fn survival(&self, u: usize) -> f64 {
        let completed_before: f64 = (1..u).map(|v| self.prob(v)).sum();
        1.0 - completed_before
    }

    /// The whole survival series `[survival(1), ..., survival(N_D)]` in one
    /// O(N_D) pass, instead of the O(N_D²) of calling
    /// [`expected_active`](Self::expected_active) per iteration.
    /// [`CompletionSeries`] builds the same series without the distribution.
    pub fn survival_series(&self) -> Vec<f64> {
        let mut series = Vec::with_capacity(self.n_d);
        let mut completed_before = 0.0;
        for u in 1..=self.n_d {
            series.push(1.0 - completed_before);
            completed_before += self.prob(u);
        }
        series
    }
}

/// The completion analysis the RRA estimate reads, built in one pass
/// without a [`CompletionDist`]: `P_D(U)` is accumulated phase by phase
/// into the series' buffer, which is then turned into survival factors in
/// place. Bit for bit, `fraction` is
/// [`CompletionDist::completion_fraction`] and `survival` is
/// [`CompletionDist::survival_series`] of the same `N_D`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionSeries {
    /// `Σ_U P_D(U)`, for sizing the decode pool: the survival series'
    /// final cumulative sum.
    pub fraction: f64,
    /// `survival[u-1]` = expected fraction of the pool still active at the
    /// start of decode iteration `u`.
    pub survival: Vec<f64>,
}

impl CompletionSeries {
    /// The completion fraction and survival series for encoding frequency
    /// `N_D` over the output-length distribution `P_D(S)`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidParameter`] if `n_d == 0`.
    pub fn new(output: &LengthDist, n_d: usize) -> Result<Self, DistError> {
        check_n_d(n_d)?;
        let mut survival = vec![0.0; n_d];
        accumulate(output, &mut survival);
        let mut completed_before = 0.0;
        for slot in &mut survival {
            let p = *slot;
            *slot = 1.0 - completed_before;
            completed_before += p;
        }
        Ok(Self { fraction: completed_before, survival })
    }
}

fn check_n_d(n_d: usize) -> Result<(), DistError> {
    if n_d == 0 {
        return Err(DistError::InvalidParameter {
            what: "n_d",
            why: "encoding frequency must be at least 1",
        });
    }
    Ok(())
}

/// Adds `P_D(U = u)` into `probs[u-1]` for `N_D = probs.len()`, phase by
/// phase: the lengths of phase `k` (0-based) are `k·N_D + 1 ..= (k+1)·N_D`,
/// one chunk of the PMF, and complete at `U = 1 ..= N_D` with probability
/// `P(S) / (k + 1)` (dividing by 1.0 is exact). Lengths of zero mass are
/// skipped, as [`LengthDist::iter`] skips them.
fn accumulate(output: &LengthDist, probs: &mut [f64]) {
    let mut phases = 1.0;
    for chunk in output.masses().chunks(probs.len()) {
        for (slot, &p_s) in probs.iter_mut().zip(chunk) {
            if p_s > 0.0 {
                *slot += p_s / phases;
            }
        }
        phases += 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_nd() {
        let out = LengthDist::point_mass(4, 8).expect("valid");
        assert!(CompletionDist::new(&out, 0).is_err());
    }

    #[test]
    fn point_mass_shorter_than_nd_completes_at_s() {
        let out = LengthDist::point_mass(4, 8).expect("valid");
        let c = CompletionDist::new(&out, 8).expect("valid");
        assert_eq!(c.prob(4), 1.0);
        assert!((c.completion_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_mass_longer_than_nd_spreads_over_phases() {
        // S = 10, N_D = 4 -> ceil(10/4) = 3 phases, completes at U = 1 + 9 % 4 = 2.
        let out = LengthDist::point_mass(10, 16).expect("valid");
        let c = CompletionDist::new(&out, 4).expect("valid");
        assert!((c.prob(2) - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.completion_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn batch_consistency_round_trip() {
        let out = LengthDist::truncated_normal(64.0, 30.0, 160).expect("valid");
        let c = CompletionDist::new(&out, 16).expect("valid");
        let b_d = c.decode_batch_for(32).expect("completable");
        // Refilled slots per phase ~ encoder batch.
        let refills = c.expected_completions(b_d);
        assert!((refills - 32.0).abs() < 1.0, "refills {refills}");
    }

    #[test]
    fn expected_active_decreases_within_phase() {
        let out = LengthDist::truncated_normal(8.0, 4.0, 32).expect("valid");
        let c = CompletionDist::new(&out, 8).expect("valid");
        let mut prev = f64::INFINITY;
        for u in 1..=8 {
            let a = c.expected_active(100, u);
            assert!(a <= prev + 1e-9);
            prev = a;
        }
        assert_eq!(c.expected_active(100, 1), 100.0);
    }

    #[test]
    fn completion_fraction_increases_with_nd() {
        let out = LengthDist::truncated_normal(64.0, 30.0, 160).expect("valid");
        let f4 = CompletionDist::new(&out, 4).expect("valid").completion_fraction();
        let f32 = CompletionDist::new(&out, 32).expect("valid").completion_fraction();
        let f160 = CompletionDist::new(&out, 160).expect("valid").completion_fraction();
        assert!(f4 < f32);
        assert!(f32 < f160);
        assert!((f160 - 1.0).abs() < 1e-9, "N_D = max length completes everything");
    }

    #[test]
    fn probabilities_are_valid() {
        let out = LengthDist::truncated_normal(192.0, 93.0, 480).expect("valid");
        for n_d in [1, 3, 7, 64, 480] {
            let c = CompletionDist::new(&out, n_d).expect("valid");
            let total: f64 = (1..=n_d).map(|u| c.prob(u)).sum();
            assert!(total <= 1.0 + 1e-9);
            assert!((0..=n_d + 1).all(|u| c.prob(u) >= 0.0));
            assert_eq!(c.prob(0), 0.0);
            assert_eq!(c.prob(n_d + 1), 0.0);
        }
    }
}
