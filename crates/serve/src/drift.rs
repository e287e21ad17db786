//! Online output-length drift detection (§5.2 / §7.6).
//!
//! The scheduler optimizes for an output-length distribution; when live
//! traffic drifts away from it, the schedule's encode/decode balance is
//! wrong and throughput/latency degrade (paper Figure 11). The detector
//! keeps a sliding window of *completed* output lengths, periodically
//! compares the window mean to the scheduled mean, and — after the
//! relative shift exceeds a threshold for several consecutive checks —
//! declares drift. The serving loop then refits a distribution to the
//! window ([`exegpt_dist::fit::best_fit`]) and reschedules on the warm
//! engine.

use exegpt_dist::fit::{best_fit, Fit};
use exegpt_dist::DistError;

/// Tuning knobs of the [`DriftDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftOptions {
    /// Sliding-window capacity in completed requests.
    pub window: usize,
    /// Minimum window occupancy before any check fires.
    pub min_samples: usize,
    /// Completions between consecutive checks.
    pub check_every: usize,
    /// Relative mean shift `|window − scheduled| / scheduled` that counts
    /// as a hit.
    pub rel_threshold: f64,
    /// Consecutive hits required to declare drift (debouncing).
    pub consecutive: usize,
}

impl Default for DriftOptions {
    fn default() -> Self {
        Self { window: 256, min_samples: 64, check_every: 32, rel_threshold: 0.2, consecutive: 2 }
    }
}

/// Result of one drift check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftCheck {
    /// Mean output length over the window.
    pub window_mean: f64,
    /// Output mean the current schedule was optimized for.
    pub scheduled_mean: f64,
    /// `|window_mean − scheduled_mean| / scheduled_mean`.
    pub rel_shift: f64,
    /// Whether drift is declared as of this check.
    pub drifted: bool,
}

/// Sliding-window drift detector over completed output lengths.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    opts: DriftOptions,
    window: std::collections::VecDeque<usize>,
    since_check: usize,
    hits: usize,
    checks: usize,
}

impl DriftDetector {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics if `window`, `check_every` or `consecutive` is zero, or
    /// `min_samples > window`.
    pub fn new(opts: DriftOptions) -> Self {
        assert!(opts.window > 0, "window must be positive");
        assert!(opts.check_every > 0, "check_every must be positive");
        assert!(opts.consecutive > 0, "consecutive must be positive");
        assert!(opts.min_samples <= opts.window, "min_samples cannot exceed window");
        Self { opts, window: std::collections::VecDeque::new(), since_check: 0, hits: 0, checks: 0 }
    }

    /// Feeds one completed output length; every `check_every` completions
    /// (once `min_samples` are buffered) returns a [`DriftCheck`] against
    /// `scheduled_mean`.
    pub fn observe(&mut self, output_len: usize, scheduled_mean: f64) -> Option<DriftCheck> {
        if self.window.len() == self.opts.window {
            self.window.pop_front();
        }
        self.window.push_back(output_len);
        self.since_check += 1;
        if self.window.len() < self.opts.min_samples || self.since_check < self.opts.check_every {
            return None;
        }
        self.since_check = 0;
        self.checks += 1;
        let window_mean =
            self.window.iter().map(|&l| l as f64).sum::<f64>() / self.window.len() as f64;
        let rel_shift = if scheduled_mean > 0.0 {
            (window_mean - scheduled_mean).abs() / scheduled_mean
        } else {
            f64::INFINITY
        };
        if rel_shift > self.opts.rel_threshold {
            self.hits += 1;
        } else {
            self.hits = 0;
        }
        Some(DriftCheck {
            window_mean,
            scheduled_mean,
            rel_shift,
            drifted: self.hits >= self.opts.consecutive,
        })
    }

    /// Fits a fresh output-length distribution to the current window
    /// (best family by penalized log-likelihood).
    ///
    /// # Errors
    ///
    /// Returns a [`DistError`] if the window is empty or degenerate for
    /// every family.
    pub fn refit(&self) -> Result<Fit, DistError> {
        let samples: Vec<usize> = self.window.iter().copied().collect();
        best_fit(&samples)
    }

    /// Clears the window and hit counters — called after a reschedule so
    /// the detector restarts against the *new* scheduled distribution.
    pub fn reset(&mut self) {
        self.window.clear();
        self.since_check = 0;
        self.hits = 0;
    }

    /// Buffered completions.
    pub fn samples(&self) -> usize {
        self.window.len()
    }

    /// Checks performed so far (not reset by [`reset`](Self::reset)).
    pub fn checks(&self) -> usize {
        self.checks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> DriftOptions {
        DriftOptions {
            window: 64,
            min_samples: 16,
            check_every: 8,
            rel_threshold: 0.2,
            consecutive: 2,
        }
    }

    #[test]
    fn stable_traffic_never_drifts() {
        let mut d = DriftDetector::new(opts());
        let mut drifted = false;
        for i in 0..200 {
            if let Some(c) = d.observe(100 + (i % 5), 102.0) {
                assert!(c.rel_shift < 0.2);
                drifted |= c.drifted;
            }
        }
        assert!(!drifted);
        assert!(d.checks() > 0, "checks did fire");
    }

    #[test]
    fn an_unbounded_window_observes_without_panicking() {
        let mut d = DriftDetector::new(DriftOptions { window: usize::MAX, ..opts() });
        for i in 0..200 {
            let _ = d.observe(100 + (i % 5), 102.0);
        }
        assert!(d.checks() > 0, "checks did fire");
    }

    #[test]
    fn sustained_shift_is_declared_after_debounce() {
        let mut d = DriftDetector::new(opts());
        // Scheduled mean 100, actual 160: rel shift ramps up as the window
        // fills with shifted lengths.
        let mut first_drift_check = None;
        for i in 0..200 {
            if let Some(c) = d.observe(160, 100.0) {
                if c.drifted && first_drift_check.is_none() {
                    first_drift_check = Some(d.checks());
                }
                if first_drift_check.is_none() {
                    // Not yet debounced: needs `consecutive` threshold hits.
                    assert!(d.checks() < 2 || c.rel_shift <= 0.2 || i < 32);
                }
            }
        }
        let at = first_drift_check.expect("drift declared");
        assert!(at >= 2, "debounce requires at least `consecutive` checks, got {at}");
    }

    #[test]
    fn transient_spike_is_debounced_away() {
        let mut d = DriftDetector::new(DriftOptions {
            window: 8,
            min_samples: 4,
            check_every: 4,
            rel_threshold: 0.2,
            consecutive: 2,
        });
        // A short spike, washed out of the window before a second
        // consecutive hit can accumulate.
        let lens = [160, 160, 100, 100, 100, 100, 100, 100];
        let mut drifted = false;
        for &l in &lens {
            if let Some(c) = d.observe(l, 100.0) {
                drifted |= c.drifted;
            }
        }
        assert!(!drifted, "single-hit spike must not declare drift");
    }

    #[test]
    fn refit_recovers_window_mean_and_reset_clears() {
        let mut d = DriftDetector::new(opts());
        for _ in 0..64 {
            d.observe(150, 100.0);
        }
        let fit = d.refit().expect("fits");
        assert!((fit.dist.mean() - 150.0).abs() < 15.0, "refit mean near window mean");
        d.reset();
        assert_eq!(d.samples(), 0);
        assert!(d.refit().is_err(), "empty window cannot be fitted");
    }
}
