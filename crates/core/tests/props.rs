//! Property-based invariants of the branch-and-bound optimizer: on
//! arbitrary monotone surfaces it must match brute force exactly, and on
//! perturbed surfaces it must stay feasible and near-optimal.

use exegpt::bnb::{optimize, BnbOptions, Perf};
use exegpt_units::Secs;
use proptest::prelude::*;

/// A random monotone surface: latency and throughput both non-decreasing
/// in each coordinate, built from random non-negative increments.
#[derive(Debug, Clone)]
struct Surface {
    lat: Vec<Vec<f64>>,
    thr: Vec<Vec<f64>>,
}

fn arb_surface(n1: usize, n2: usize) -> impl Strategy<Value = Surface> {
    let cells = n1 * n2;
    (prop::collection::vec(0.0f64..5.0, cells), prop::collection::vec(0.0f64..5.0, cells)).prop_map(
        move |(dl, dt)| {
            let mut lat = vec![vec![0.0f64; n2]; n1];
            let mut thr = vec![vec![0.0f64; n2]; n1];
            for i in 0..n1 {
                for j in 0..n2 {
                    let up_l = if i > 0 { lat[i - 1][j] } else { 0.0 };
                    let left_l = if j > 0 { lat[i][j - 1] } else { 0.0 };
                    lat[i][j] = up_l.max(left_l) + dl[i * n2 + j];
                    let up_t = if i > 0 { thr[i - 1][j] } else { 0.0 };
                    let left_t = if j > 0 { thr[i][j - 1] } else { 0.0 };
                    thr[i][j] = up_t.max(left_t) + dt[i * n2 + j];
                }
            }
            Surface { lat, thr }
        },
    )
}

fn brute(s: &Surface, bound: f64) -> Option<f64> {
    let mut best = None;
    for row in 0..s.lat.len() {
        for col in 0..s.lat[0].len() {
            if s.lat[row][col] <= bound {
                let t = s.thr[row][col];
                best = Some(best.map_or(t, |b: f64| if t > b { t } else { b }));
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On exactly monotone surfaces the search equals brute force.
    #[test]
    fn matches_brute_force_on_monotone_surfaces(
        surface in arb_surface(24, 24),
        bound_frac in 0.0f64..1.2,
    ) {
        let max_lat = surface.lat[23][23];
        let bound = max_lat * bound_frac;
        let eval = |x: usize, y: usize| Perf {
            latency: Secs::new(surface.lat[x - 1][y - 1]),
            throughput: surface.thr[x - 1][y - 1],
        };
        let opts = BnbOptions { latency_bound: Secs::new(bound), ..Default::default() };
        let got = optimize((1, 24), (1, 24), &opts, eval).map(|r| r.perf.throughput);
        prop_assert_eq!(got, brute(&surface, bound));
    }

    /// The result is always feasible: its latency respects the bound.
    #[test]
    fn never_returns_infeasible_points(
        surface in arb_surface(16, 16),
        bound_frac in 0.0f64..1.0,
        holes in prop::collection::vec((0usize..16, 0usize..16), 0..24),
    ) {
        // Punch infeasible holes into the surface (non-monotone hazards).
        let max_lat = surface.lat[15][15];
        let bound = max_lat * bound_frac;
        let eval = |x: usize, y: usize| {
            if holes.contains(&(x - 1, y - 1)) {
                Perf::INFEASIBLE
            } else {
                Perf {
                    latency: Secs::new(surface.lat[x - 1][y - 1]),
                    throughput: surface.thr[x - 1][y - 1],
                }
            }
        };
        let opts = BnbOptions { latency_bound: Secs::new(bound), ..Default::default() };
        if let Some(r) = optimize((1, 16), (1, 16), &opts, eval) {
            prop_assert!(r.perf.latency <= Secs::new(bound));
            prop_assert!(r.perf.throughput.is_finite());
            let (x, y) = r.point;
            prop_assert!(!holes.contains(&(x - 1, y - 1)), "returned a hole");
        }
    }

    /// The search never does worse than the feasible corners it must visit.
    #[test]
    fn at_least_as_good_as_the_corners(
        surface in arb_surface(20, 20),
        bound_frac in 0.05f64..1.0,
        ripple in 0.0f64..0.1,
    ) {
        let max_lat = surface.lat[19][19];
        let bound = max_lat * bound_frac;
        // Deterministic multiplicative ripple breaks exact monotonicity.
        let eval = |x: usize, y: usize| {
            let r = 1.0 + ripple * ((((x * 31 + y * 17) % 7) as f64 - 3.0) / 3.0);
            Perf {
                latency: Secs::new(surface.lat[x - 1][y - 1] * r),
                throughput: surface.thr[x - 1][y - 1] * r,
            }
        };
        let opts = BnbOptions {
            latency_bound: Secs::new(bound),
            eps_latency: Secs::new(bound * 0.1),
            eps_throughput: 0.0,
            max_evals: 20_000,
        };
        let got = optimize((1, 20), (1, 20), &opts, eval);
        // The origin corner is always evaluated; if it is feasible the
        // search must return something at least as good.
        let origin = eval(1, 1);
        if origin.latency <= Secs::new(bound) {
            let r = got.expect("a feasible corner exists");
            prop_assert!(r.perf.throughput >= origin.throughput);
        }
    }
}
