//! Branch-and-bound for monotonic optimization (paper §5.1, Algorithm 1).
//!
//! The scheduling problem — maximize throughput subject to a latency bound —
//! is monotonic: along each (suitably oriented) control-variable axis both
//! the objective and the constraint are non-decreasing. This module
//! implements the paper's branch-and-bound over 2-D integer boxes:
//!
//! 1. If the box's maximal corner meets the latency bound, it is optimal.
//! 2. Otherwise split the box (heuristically along the axis whose extreme
//!    corner looks more promising), bound each child by its maximal corner's
//!    throughput, discard children whose *minimal* corner already violates
//!    the bound, and keep the best feasible corner seen.
//! 3. Tolerances `ε_L`/`ε_T` keep the search robust when the functions are
//!    only monotone within small violations (as measured in Table 5).
//!
//! Axis orientation is the caller's job: map each raw control variable so
//! that *increasing* the mapped coordinate increases both throughput and
//! latency (e.g. RRA's `N_D` enters as the encoding frequency `F_E`).

use std::collections::{BTreeMap, BinaryHeap};

use exegpt_units::Secs;

/// Evaluated performance of one configuration point.
///
/// Infeasible points (out of memory, structurally invalid) are represented
/// as [`Perf::INFEASIBLE`]: infinite latency keeps them out of the candidate
/// set, and infinite throughput keeps them from wrongly pruning blocks when
/// they appear as an upper-bound corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perf {
    /// Latency of the configuration.
    pub latency: Secs,
    /// Throughput in queries per second.
    pub throughput: f64,
}

impl Perf {
    /// The sentinel for configurations that cannot run.
    pub const INFEASIBLE: Perf = Perf { latency: Secs::INFINITY, throughput: f64::INFINITY };

    /// Whether this point can be a solution under `bound`.
    pub fn satisfies(&self, bound: Secs) -> bool {
        self.latency.is_finite() && self.latency <= bound
    }
}

/// Tolerances and limits for one branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BnbOptions {
    /// The latency bound `L_b` (`Secs::INFINITY` allowed).
    pub latency_bound: Secs,
    /// Latency tolerance `ε_L`: blocks whose minimal corner exceeds
    /// `L_b + ε_L` are discarded.
    pub eps_latency: Secs,
    /// Throughput tolerance `ε_T`, *relative*: a block is pruned only when
    /// its upper bound times `(1 + ε_T)` still trails the incumbent, so a
    /// larger tolerance keeps more blocks alive (the paper's robustness
    /// knob against non-monotonicity).
    pub eps_throughput: f64,
    /// Safety valve on the number of distinct evaluations.
    pub max_evals: usize,
}

impl Default for BnbOptions {
    fn default() -> Self {
        Self {
            latency_bound: Secs::INFINITY,
            eps_latency: Secs::ZERO,
            eps_throughput: 0.0,
            max_evals: 20_000,
        }
    }
}

/// Outcome of a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BnbResult {
    /// The best feasible point found, in the caller's oriented coordinates.
    pub point: (usize, usize),
    /// Its evaluated performance.
    pub perf: Perf,
    /// Number of distinct configuration evaluations performed.
    pub evals: usize,
}

#[derive(Debug, Clone, Copy)]
struct Block {
    lo: (usize, usize),
    hi: (usize, usize),
    upper_thr: f64,
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.upper_thr.total_cmp(&other.upper_thr).is_eq()
    }
}
impl Eq for Block {}
impl PartialOrd for Block {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Block {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.upper_thr.total_cmp(&other.upper_thr)
    }
}

/// Runs the branch-and-bound search over the integer box
/// `range1 × range2` (both inclusive).
///
/// `eval` maps an oriented point to its performance; return
/// [`Perf::INFEASIBLE`] for configurations that cannot run. Evaluations are
/// memoized, so `eval` may be expensive.
///
/// Returns `None` when no evaluated point satisfies the latency bound.
///
/// # Panics
///
/// Panics if a range is empty (`lo > hi`).
///
/// # Example
///
/// ```
/// use exegpt::bnb::{optimize, BnbOptions, Perf};
/// use exegpt_units::Secs;
///
/// // throughput = x·y, latency = x + y, bound 10: best is on x + y = 10.
/// let opts = BnbOptions { latency_bound: Secs::new(10.0), ..Default::default() };
/// let r = optimize((1, 8), (1, 8), &opts,
///     |x, y| Perf { latency: Secs::new((x + y) as f64), throughput: (x * y) as f64 })
///     .expect("feasible");
/// assert_eq!(r.perf.throughput, 25.0); // x = y = 5
/// ```
pub fn optimize<F>(
    range1: (usize, usize),
    range2: (usize, usize),
    opts: &BnbOptions,
    eval: F,
) -> Option<BnbResult>
where
    F: Fn(usize, usize) -> Perf,
{
    assert!(range1.0 <= range1.1, "range1 must be non-empty");
    assert!(range2.0 <= range2.1, "range2 must be non-empty");

    let mut memo: BTreeMap<(usize, usize), Perf> = BTreeMap::new();
    let mut evals = 0usize;
    let mut best: Option<((usize, usize), Perf)> = None;

    macro_rules! ev {
        ($p:expr) => {{
            let p = $p;
            if let Some(hit) = memo.get(&p) {
                *hit
            } else {
                evals += 1;
                let perf = eval(p.0, p.1);
                memo.insert(p, perf);
                perf
            }
        }};
    }
    // Ties on throughput go to the lexicographically smaller point. This
    // makes the winner a function of the *set* of evaluated feasible points
    // rather than their discovery order.
    macro_rules! consider {
        ($p:expr, $perf:expr) => {{
            let (p, perf) = ($p, $perf);
            #[expect(
                clippy::float_cmp,
                reason = "an exact throughput tie falls to the smaller point"
            )]
            let wins = perf.satisfies(opts.latency_bound)
                && perf.throughput.is_finite()
                && best.map_or(true, |(bp, b)| {
                    perf.throughput > b.throughput || (perf.throughput == b.throughput && p < bp)
                });
            if wins {
                best = Some((p, perf));
            }
        }};
    }

    // The maximal corner of the whole space: if it meets the bound it is
    // the optimum outright (Algorithm 1's boundary check).
    let top = (range1.1, range2.1);
    let p_top = ev!(top);
    consider!(top, p_top);
    if p_top.satisfies(opts.latency_bound) {
        return best.map(|(point, perf)| BnbResult { point, perf, evals });
    }

    let mut queue: BinaryHeap<Block> = BinaryHeap::new();
    let lo0 = (range1.0, range2.0);
    let p_lo = ev!(lo0);
    consider!(lo0, p_lo);
    if p_lo.latency < opts.latency_bound + opts.eps_latency {
        queue.push(Block { lo: lo0, hi: top, upper_thr: f64::INFINITY });
    }

    while let Some(block) = queue.pop() {
        if evals >= opts.max_evals {
            break;
        }
        // Prune blocks that cannot beat the incumbent even with the ε_T
        // slack.
        let cutoff = best.map_or(f64::NEG_INFINITY, |(_, b)| b.throughput);
        if block.upper_thr * (1.0 + opts.eps_throughput) < cutoff {
            continue;
        }
        let (lo, hi) = (block.lo, block.hi);
        if lo == hi {
            // Single cell: its corners are all the same evaluated point.
            continue;
        }

        // Split heuristic (Algorithm 1 lines 7-10): look at the top-left and
        // bottom-right corners; follow the better feasible one.
        let tl = (lo.0, hi.1);
        let br = (hi.0, lo.1);
        let p_tl = ev!(tl);
        let p_br = ev!(br);
        consider!(tl, p_tl);
        consider!(br, p_br);

        let can_v = hi.0 > lo.0;
        let can_h = hi.1 > lo.1;
        let tl_ok = p_tl.satisfies(opts.latency_bound) && p_tl.throughput.is_finite();
        let br_ok = p_br.satisfies(opts.latency_bound) && p_br.throughput.is_finite();
        let vertical = if !can_h {
            true
        } else if !can_v {
            false
        } else if tl_ok && (!br_ok || p_tl.throughput >= p_br.throughput) {
            true
        } else if br_ok {
            false
        } else {
            // Neither satisfies: split the longer dimension.
            hi.0 - lo.0 >= hi.1 - lo.1
        };

        let (b1, b2) = if vertical {
            let m = lo.0 + (hi.0 - lo.0) / 2;
            (
                Block { lo, hi: (m, hi.1), upper_thr: 0.0 },
                Block { lo: (m + 1, lo.1), hi, upper_thr: 0.0 },
            )
        } else {
            let m = lo.1 + (hi.1 - lo.1) / 2;
            (
                Block { lo, hi: (hi.0, m), upper_thr: 0.0 },
                Block { lo: (lo.0, m + 1), hi, upper_thr: 0.0 },
            )
        };

        for mut child in [b1, b2] {
            let upp_corner = child.hi;
            let low_corner = child.lo;
            let p_upp = ev!(upp_corner);
            let p_low = ev!(low_corner);
            consider!(upp_corner, p_upp);
            consider!(low_corner, p_low);
            // Line 14: keep only blocks whose minimal corner can still meet
            // the (tolerance-relaxed) bound.
            if p_low.latency < opts.latency_bound + opts.eps_latency {
                child.upper_thr = p_upp.throughput;
                queue.push(child);
            }
        }
    }

    best.map(|(point, perf)| BnbResult { point, perf, evals })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(bound: f64) -> BnbOptions {
        BnbOptions { latency_bound: Secs::new(bound), ..Default::default() }
    }

    /// Brute-force reference optimum.
    fn brute<F: Fn(usize, usize) -> Perf>(
        r1: (usize, usize),
        r2: (usize, usize),
        bound: f64,
        eval: &F,
    ) -> Option<f64> {
        let mut best = None;
        for x in r1.0..=r1.1 {
            for y in r2.0..=r2.1 {
                let p = eval(x, y);
                if p.satisfies(Secs::new(bound)) && p.throughput.is_finite() {
                    best = Some(best.map_or(p.throughput, |b: f64| b.max(p.throughput)));
                }
            }
        }
        best
    }

    #[test]
    fn finds_the_monotone_optimum() {
        let eval = |x: usize, y: usize| Perf {
            latency: Secs::new((x + 2 * y) as f64),
            throughput: (x * x + y) as f64,
        };
        for bound in [5.0, 17.0, 40.0, 300.0] {
            let r = optimize((1, 64), (1, 64), &opts(bound), eval);
            let want = brute((1, 64), (1, 64), bound, &eval);
            assert_eq!(r.map(|r| r.perf.throughput), want, "bound {bound}");
        }
    }

    #[test]
    fn relaxed_bound_returns_max_corner_immediately() {
        let mut count = std::cell::Cell::new(0);
        let _ = &mut count;
        let r = optimize((1, 100), (1, 100), &opts(f64::INFINITY), |x, y| {
            count.set(count.get() + 1);
            Perf { latency: Secs::new((x + y) as f64), throughput: (x * y) as f64 }
        })
        .expect("feasible");
        assert_eq!(r.point, (100, 100));
        assert_eq!(count.get(), 1, "only the max corner needs evaluating");
    }

    #[test]
    fn infeasible_everywhere_returns_none() {
        let r = optimize((1, 16), (1, 16), &opts(0.5), |x, y| Perf {
            latency: Secs::new((x + y) as f64),
            throughput: 1.0,
        });
        assert!(r.is_none());
    }

    #[test]
    fn oom_regions_do_not_hide_the_optimum() {
        // Points with x*y > 400 are "out of memory"; the bound excludes the
        // top corner, so the search must navigate around both obstacles.
        let eval = |x: usize, y: usize| {
            if x * y > 400 {
                Perf::INFEASIBLE
            } else {
                Perf { latency: Secs::new((x + y) as f64), throughput: (x * y) as f64 }
            }
        };
        let r = optimize((1, 64), (1, 64), &opts(45.0), eval).expect("feasible");
        let want = brute((1, 64), (1, 64), 45.0, &eval).expect("some feasible");
        assert_eq!(r.perf.throughput, want);
    }

    #[test]
    fn evaluates_far_fewer_points_than_brute_force() {
        let eval = |x: usize, y: usize| Perf {
            latency: Secs::new((3 * x + y) as f64),
            throughput: (x * y + x) as f64,
        };
        let r = optimize((1, 512), (1, 512), &opts(600.0), eval).expect("feasible");
        let want = brute((1, 512), (1, 512), 600.0, &eval).expect("some feasible");
        assert_eq!(r.perf.throughput, want);
        assert!(r.evals < 512 * 512 / 20, "expected large pruning, used {} evals", r.evals);
    }

    #[test]
    fn tolerances_absorb_small_non_monotonicity() {
        // A monotone surface with a deterministic +-2% ripple.
        let eval = |x: usize, y: usize| {
            let ripple = 1.0 + 0.02 * (((x * 7 + y * 13) % 5) as f64 - 2.0) / 2.0;
            Perf {
                latency: Secs::new((x + y) as f64 * ripple),
                throughput: (x * y) as f64 * ripple,
            }
        };
        let o = BnbOptions {
            latency_bound: Secs::new(60.0),
            eps_latency: Secs::new(2.0),
            eps_throughput: 0.05,
            max_evals: 20_000,
        };
        let r = optimize((1, 64), (1, 64), &o, eval).expect("feasible");
        let want = brute((1, 64), (1, 64), 60.0, &eval).expect("some feasible");
        assert!(r.perf.throughput >= want * 0.95, "found {} vs brute {want}", r.perf.throughput);
    }

    #[test]
    fn single_cell_ranges_work() {
        let r = optimize((3, 3), (4, 4), &opts(100.0), |x, y| Perf {
            latency: Secs::new((x + y) as f64),
            throughput: (x * y) as f64,
        })
        .expect("feasible");
        assert_eq!(r.point, (3, 4));
        assert_eq!(r.perf.throughput, 12.0);
    }

    #[test]
    fn single_row_and_column_ranges_work() {
        let eval = |x: usize, y: usize| Perf {
            latency: Secs::new((x + y) as f64),
            throughput: (x * y) as f64,
        };
        let row = optimize((1, 32), (5, 5), &opts(20.0), eval).expect("feasible");
        assert_eq!(row.perf.throughput, brute((1, 32), (5, 5), 20.0, &eval).expect("any"));
        let col = optimize((5, 5), (1, 32), &opts(20.0), eval).expect("feasible");
        assert_eq!(col.perf.throughput, brute((5, 5), (1, 32), 20.0, &eval).expect("any"));
    }

    #[test]
    #[should_panic(expected = "range1 must be non-empty")]
    fn empty_range_panics() {
        let _ = optimize((5, 4), (1, 2), &opts(1.0), |_, _| Perf::INFEASIBLE);
    }

    #[test]
    fn ties_break_to_the_lexicographically_smaller_point() {
        // A flat feasible plateau: the search must settle on the smallest
        // evaluated point rather than the discovery order.
        let eval =
            |x: usize, y: usize| Perf { latency: Secs::new((x + y) as f64), throughput: 1.0 };
        let r = optimize((1, 8), (1, 8), &opts(10.0), eval).expect("feasible");
        assert_eq!(r.point, (1, 1));
    }

    #[test]
    fn eval_budget_is_respected() {
        let o = BnbOptions {
            latency_bound: Secs::new(1e9),
            eps_latency: Secs::new(1e12),
            max_evals: 10,
            ..opts(1e9)
        };
        // Bound excludes nothing but eps_latency keeps all blocks alive;
        // use an anti-monotone surface to force exploration.
        let r = optimize((1, 4096), (1, 4096), &o, |x, y| Perf {
            latency: Secs::new(2e9 - (x + y) as f64),
            throughput: 1.0 / (x * y) as f64,
        });
        // Never runs away; may or may not find something, but terminates.
        if let Some(r) = r {
            assert!(r.evals <= 40, "evals bounded, got {}", r.evals);
        }
    }
}
