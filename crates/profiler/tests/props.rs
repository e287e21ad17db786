//! Property-based invariants of the interpolation grids, and the guided
//! segment search against the binary search it replaced.

use exegpt_profiler::{Grid1D, Grid2D};
use proptest::prelude::*;

/// A finite float from one of several regimes: huge and tiny magnitudes,
/// subnormals, signed zeros, powers of two across the whole exponent range
/// and arbitrary bit patterns (non-finite ones are dropped by the caller).
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e300f64..1e300,
        -4.0f64..4.0,
        -1e-300f64..1e-300,
        -1e-309f64..1e-309,
        Just(0.0),
        Just(-0.0),
        (-1074i32..1023, any::<bool>()).prop_map(|(e, neg)| if neg {
            -(2f64.powi(e))
        } else {
            2f64.powi(e)
        }),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

/// The rank the guided search must return: the binary search it replaced.
fn partition_rank(xs: &[f64], x: f64) -> usize {
    xs.partition_point(|&v| v <= x)
}

/// Checks the guided rank against [`partition_rank`] at every knot, its
/// float neighbours, infinities, NaN of both signs and `queries`.
fn check_rank(xs: &[f64], queries: &[f64]) {
    let grid = Grid1D::new(xs.to_vec(), vec![0.0; xs.len()]).expect("valid axis");
    let knots = xs.iter().flat_map(|&k| [k.next_down(), k, k.next_up()]);
    let edges = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN, 0.0, -0.0];
    for x in knots.chain(edges).chain(queries.iter().copied()) {
        assert_eq!(grid.rank(x), partition_rank(xs, x), "x = {x:e} on {xs:?}");
    }
}

#[test]
fn rank_handles_signed_zeros_subnormals_and_wide_axes() {
    let axes: [&[f64]; 6] = [
        &[0.0, 1.0, 2.0],
        &[-0.0, 0.5, 3.0],
        &[-2.0, -1.0, 0.0, 1e-300, 1.0, 1e300],
        &[-1e-310, 5e-324, 1.0],
        &[1.0, 1.5, 1.75, 2.0, 4.0, 4096.0, 8192.0],
        &[f64::MIN, -1.0, f64::MAX],
    ];
    let queries = [-1.0, -1e-310, 5e-324, 0.75, 1.6, 3.0, 1e6, f64::MIN, f64::MAX];
    for xs in axes {
        check_rank(xs, &queries);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interpolation is exact at the knots and bounded by neighbouring
    /// knot values inside each segment for monotone data.
    #[test]
    fn grid1d_interpolates_within_segments(
        increments in prop::collection::vec(0.01f64..10.0, 2..32),
        ys_inc in prop::collection::vec(0.0f64..5.0, 2..32),
        t in 0.0f64..1.0,
    ) {
        let n = increments.len().min(ys_inc.len());
        let mut xs = Vec::with_capacity(n);
        let mut acc = 0.0;
        for inc in &increments[..n] {
            acc += inc;
            xs.push(acc);
        }
        let mut ys = Vec::with_capacity(n);
        let mut yacc = 0.0;
        for inc in &ys_inc[..n] {
            yacc += inc;
            ys.push(yacc);
        }
        let g = Grid1D::new(xs.clone(), ys.clone()).expect("valid grid");
        for i in 0..n {
            prop_assert!((g.eval(xs[i]) - ys[i]).abs() < 1e-9);
        }
        if n >= 2 {
            let i = (t * (n - 1) as f64) as usize;
            let i = i.min(n - 2);
            let x = xs[i] + t.fract() * (xs[i + 1] - xs[i]);
            let v = g.eval(x);
            prop_assert!(v >= ys[i] - 1e-9 && v <= ys[i + 1] + 1e-9);
        }
    }

    /// Bilinear interpolation reproduces affine functions exactly,
    /// everywhere (including extrapolation).
    #[test]
    fn grid2d_reproduces_affine_functions(
        a in -5.0f64..5.0,
        b in -5.0f64..5.0,
        c in -5.0f64..5.0,
        qx in -10.0f64..120.0,
        qy in -10.0f64..120.0,
    ) {
        let xs: Vec<f64> = (0..8).map(|i| (i * i + i + 1) as f64).collect();
        let ys: Vec<f64> = (0..6).map(|i| (3 * i + 1) as f64).collect();
        let f = |x: f64, y: f64| a * x + b * y + c;
        let zs: Vec<Vec<f64>> =
            xs.iter().map(|&x| ys.iter().map(|&y| f(x, y)).collect()).collect();
        let g = Grid2D::new(xs, ys, zs).expect("valid grid");
        let want = f(qx, qy).max(0.0); // grids clamp to non-negative times
        prop_assert!((g.eval(qx, qy) - want).abs() < 1e-6 * (1.0 + want.abs()));
    }

    /// The guided rank equals the binary search's on random strictly
    /// increasing finite axes of 1–64 knots.
    #[test]
    fn guided_rank_equals_the_binary_search(
        knots in prop::collection::vec(float(), 1..64),
        queries in prop::collection::vec(float(), 0..32),
    ) {
        let mut xs: Vec<f64> = knots.into_iter().filter(|x| x.is_finite()).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| a == b);
        prop_assume!(!xs.is_empty());
        check_rank(&xs, &queries);
    }
}
