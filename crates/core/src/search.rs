//! Black-box search baselines for the scheduling problem.
//!
//! §5 of the paper notes the optimization problem "can be solved by applying
//! black-box optimization techniques such as Bayesian optimization", before
//! motivating the monotonic branch-and-bound. This module provides the
//! black-box side of that comparison: a budgeted random search over the same
//! integer box, used by the `schedcost` study of `exegpt-bench` to quantify
//! what exploiting monotonicity buys.

use exegpt_units::Secs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bnb::{BnbResult, Perf};

/// Budgeted uniform random search over `range1 × range2`.
///
/// Evaluates `budget` points drawn uniformly (with a deterministic seed) and
/// returns the best feasible one, in the same [`BnbResult`] shape as
/// [`bnb::optimize`](crate::bnb::optimize) for apples-to-apples comparison.
///
/// # Example
///
/// ```
/// use exegpt::bnb::Perf;
/// use exegpt::search::random_search;
/// use exegpt_units::Secs;
///
/// let r = random_search((1, 32), (1, 32), Secs::new(10.0), 200, 7, |x, y| Perf {
///     latency: Secs::new((x + y) as f64),
///     throughput: (x * y) as f64,
/// })
/// .expect("something feasible");
/// assert!(r.perf.latency <= Secs::new(10.0));
/// ```
pub fn random_search<F>(
    range1: (usize, usize),
    range2: (usize, usize),
    latency_bound: Secs,
    budget: usize,
    seed: u64,
    eval: F,
) -> Option<BnbResult>
where
    F: Fn(usize, usize) -> Perf,
{
    assert!(range1.0 <= range1.1, "range1 must be non-empty");
    assert!(range2.0 <= range2.1, "range2 must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best: Option<((usize, usize), Perf)> = None;
    let mut evals = 0;
    for _ in 0..budget {
        let x = rng.gen_range(range1.0..=range1.1);
        let y = rng.gen_range(range2.0..=range2.1);
        evals += 1;
        let p = eval(x, y);
        if p.satisfies(latency_bound)
            && p.throughput.is_finite()
            && best.is_none_or(|(_, b)| p.throughput > b.throughput)
        {
            best = Some(((x, y), p));
        }
    }
    best.map(|(point, perf)| BnbResult { point, perf, evals, complete: true })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_feasible_points_and_is_deterministic() {
        let eval = |x: usize, y: usize| Perf {
            latency: Secs::new((x + y) as f64),
            throughput: (x * y) as f64,
        };
        let a = random_search((1, 64), (1, 64), Secs::new(40.0), 500, 3, eval).expect("feasible");
        let b = random_search((1, 64), (1, 64), Secs::new(40.0), 500, 3, eval).expect("feasible");
        assert_eq!(a.point, b.point);
        assert!(a.perf.latency <= Secs::new(40.0));
        assert_eq!(a.evals, 500);
    }

    #[test]
    fn infeasible_space_returns_none() {
        let r = random_search((1, 8), (1, 8), Secs::new(0.5), 100, 1, |x, y| Perf {
            latency: Secs::new((x + y) as f64),
            throughput: 1.0,
        });
        assert!(r.is_none());
    }

    #[test]
    fn underperforms_bnb_at_matched_budget_on_a_hard_surface() {
        // A surface with a thin high-throughput ridge along the constraint
        // boundary: random search rarely lands on it, B&B walks to it.
        let eval = |x: usize, y: usize| Perf {
            latency: Secs::new((3 * x + y) as f64),
            throughput: (x * x * y) as f64,
        };
        let bound = Secs::new(700.0);
        let bnb = crate::bnb::optimize(
            (1, 256),
            (1, 256),
            &crate::bnb::BnbOptions { latency_bound: bound, ..Default::default() },
            eval,
        )
        .expect("feasible");
        let rnd = random_search((1, 256), (1, 256), bound, bnb.evals, 11, eval).expect("feasible");
        assert!(
            bnb.perf.throughput >= rnd.perf.throughput,
            "bnb {} < random {}",
            bnb.perf.throughput,
            rnd.perf.throughput
        );
    }
}
