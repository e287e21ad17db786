//! Service-level objectives and per-request violation accounting.
//!
//! The paper's SLA discussion (§7.6) frames constraints as "99% of all
//! queries completed within a given timeframe"; an online server checks the
//! underlying per-request quantities directly: time to first token (TTFT),
//! time per generated token after the first, and end-to-end latency — all
//! measured from *arrival*, so queueing delay counts.

use exegpt_units::Secs;
use serde::Serialize;

/// Per-request latency targets, each optional (`None` = unconstrained).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SloTargets {
    /// Max time from arrival to the first generated token.
    pub ttft: Option<Secs>,
    /// Max time per generated token after the first (decode cadence).
    pub per_token: Option<Secs>,
    /// Max time from arrival to the last generated token.
    pub e2e: Option<Secs>,
}

impl Default for SloTargets {
    fn default() -> Self {
        Self::unconstrained()
    }
}

impl SloTargets {
    /// No constraints: every request trivially meets its SLO.
    pub fn unconstrained() -> Self {
        Self { ttft: None, per_token: None, e2e: None }
    }

    /// Only an end-to-end bound.
    pub fn e2e(bound: Secs) -> Self {
        Self { ttft: None, per_token: None, e2e: Some(bound) }
    }

    /// Checks one completed request. `per_token` is `None` for
    /// single-token outputs (no decode cadence to measure).
    pub fn check(&self, ttft: Secs, per_token: Option<Secs>, e2e: Secs) -> SloCheck {
        let exceeded = |target: Option<Secs>, got: Option<Secs>| match (target, got) {
            (Some(t), Some(g)) => g > t,
            _ => false,
        };
        SloCheck {
            ttft_violated: exceeded(self.ttft, Some(ttft)),
            per_token_violated: exceeded(self.per_token, per_token),
            e2e_violated: exceeded(self.e2e, Some(e2e)),
        }
    }
}

/// Outcome of checking one request against [`SloTargets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloCheck {
    /// TTFT target exceeded.
    pub ttft_violated: bool,
    /// Per-token target exceeded.
    pub per_token_violated: bool,
    /// End-to-end target exceeded.
    pub e2e_violated: bool,
}

impl SloCheck {
    /// Whether any target was exceeded.
    pub fn violated(&self) -> bool {
        self.ttft_violated || self.per_token_violated || self.e2e_violated
    }
}

/// Aggregated SLO accounting over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct SloOutcome {
    /// Requests checked (== completions).
    pub checked: usize,
    /// Requests violating the TTFT target.
    pub ttft_violations: usize,
    /// Requests violating the per-token target.
    pub per_token_violations: usize,
    /// Requests violating the end-to-end target.
    pub e2e_violations: usize,
    /// Requests violating *any* target (≤ sum of the per-target counts).
    pub violations: usize,
}

impl SloOutcome {
    /// Folds one per-request check into the totals.
    pub fn record(&mut self, check: SloCheck) {
        self.checked += 1;
        self.ttft_violations += usize::from(check.ttft_violated);
        self.per_token_violations += usize::from(check.per_token_violated);
        self.e2e_violations += usize::from(check.e2e_violated);
        self.violations += usize::from(check.violated());
    }

    /// Fraction of checked requests violating any target (0 when none
    /// checked).
    pub fn violation_rate(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            self.violations as f64 / self.checked as f64
        }
    }

    /// Internal-consistency invariants; the scenario layer's run-invariant
    /// check holds every shipped and generated run to these.
    pub fn is_consistent(&self) -> bool {
        self.violations <= self.checked
            && self.ttft_violations <= self.violations
            && self.per_token_violations <= self.violations
            && self.e2e_violations <= self.violations
            && self.violations
                <= self.ttft_violations + self.per_token_violations + self.e2e_violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_never_violates() {
        let slo = SloTargets::unconstrained();
        assert!(!slo.check(Secs::new(1e9), Some(Secs::new(1e9)), Secs::new(1e9)).violated());
    }

    #[test]
    fn each_target_is_checked_independently() {
        let slo = SloTargets {
            ttft: Some(Secs::new(1.0)),
            per_token: Some(Secs::new(0.1)),
            e2e: Some(Secs::new(10.0)),
        };
        let c = slo.check(Secs::new(2.0), Some(Secs::new(0.05)), Secs::new(5.0));
        assert!(c.ttft_violated && !c.per_token_violated && !c.e2e_violated);
        let c = slo.check(Secs::new(0.5), Some(Secs::new(0.2)), Secs::new(5.0));
        assert!(!c.ttft_violated && c.per_token_violated && !c.e2e_violated);
        let c = slo.check(Secs::new(0.5), None, Secs::new(20.0));
        assert!(!c.ttft_violated && !c.per_token_violated && c.e2e_violated);
    }

    #[test]
    fn outcome_accounting_is_consistent() {
        let slo =
            SloTargets { ttft: Some(Secs::new(1.0)), per_token: None, e2e: Some(Secs::new(4.0)) };
        let mut out = SloOutcome::default();
        out.record(slo.check(Secs::new(0.5), None, Secs::new(2.0))); // ok
        out.record(slo.check(Secs::new(2.0), None, Secs::new(5.0))); // both
        out.record(slo.check(Secs::new(0.5), None, Secs::new(5.0))); // e2e only
        assert_eq!(out.checked, 3);
        assert_eq!(out.violations, 2);
        assert_eq!(out.ttft_violations, 1);
        assert_eq!(out.e2e_violations, 2);
        assert!((out.violation_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(out.is_consistent());
    }
}
